"""The reference implementations stay independent of the code they check."""

import ast
import inspect

from maskdet import oracles, selftest


def test_oracles_import_no_maskdet_module():
    nodes = list(ast.walk(ast.parse(inspect.getsource(oracles))))
    names = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    names |= {"." * n.level + (n.module or "") for n in nodes
              if isinstance(n, ast.ImportFrom)}
    assert names == {"__future__", "numpy"}
    for name in ("naive_conv2d", "naive_pool2d", "nms_reference",
                 "orcc_fixed_point"):
        assert getattr(selftest, name) is getattr(oracles, name)
