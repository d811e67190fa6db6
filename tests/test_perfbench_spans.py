"""The traced benchmark run wraps each function named in
perfbench/spans.LAYERS; a renamed or moved function would make
`perfbench/run.py --trace 1` fail with a KeyError."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def test_span_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module("kll." + layer)
        for qual in names:
            owner, attr = module, qual
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = vars(module)[cls_name]
            assert callable(vars(owner).get(attr)), f"kll.{layer}.{qual}"
