import ast
import inspect

import homoclinic_lab


def test_exports_resolve_and_match_the_imports():
    # a name deleted from a module must leave __all__ and the imports of
    # __init__ together, so no export dangles
    tree = ast.parse(inspect.getsource(homoclinic_lab))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported = homoclinic_lab.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == imported | {"__version__"}
    for name in exported:
        assert hasattr(homoclinic_lab, name), name
