"""Spans around the public functions of each coaxmode layer.

The tracer replaces, from outside, every module attribute that refers to a
layer's public function (including the names ``cli``, ``cavity`` and
``fields`` imported from lower layers) with a wrapper that records a span:
``[name, start_ns, end_ns, parent_index, call_id]``. Spans stay in memory
until the caller writes them out. Private helpers such as ``specfun._j_raw``
are not wrapped, so their time counts as self time of the public caller.

Run as a script, it executes one traced CLI job:

    python3 bench/tracing.py SPANS_PATH JOB_ID -- <coaxmode arguments>

which behaves like ``python -m coaxmode <arguments>`` and writes the spans of
that process to SPANS_PATH as JSON on exit.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# layer -> public functions wrapped; cli._emit is the row serializer
LAYERS = {
    "specfun": ("bessel_j", "neumann_n", "hankel", "derivative"),
    "roots": ("bessel_zeros", "cross_product_zeros"),
    "cavity": ("tm_frequency", "radial_eigenvalue", "enumerate_modes_below",
               "mode_count_histogram"),
    "fields": ("radial_solution", "ez_mode", "transverse_fields", "superpose", "real_basis",
               "orthogonality_check", "boundary_residual", "helmholtz_residual"),
    "quadrature": ("integrate_adaptive", "gauss_legendre_rule"),
    "verify": ("run_checks",),
    "cli": ("main", "_emit"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.call_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def span(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        import coaxmode
        modules = {layer: importlib.import_module(f"coaxmode.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, names in LAYERS.items():
            for fn_name in names:
                fn = getattr(modules[layer], fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fn_name}", fn))
        for module in (coaxmode, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def layer_self_ns(spans: list[list]) -> dict[str, int]:
    """Self time per layer: each span's duration minus its children's."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, int] = {}
    for (name, start, end, _, _), covered in zip(spans, child):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0) + (end - start - covered)
    return out


def _traced_cli(argv: list[str]) -> int:
    spans_path, job_id, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS_PATH JOB_ID -- ARGS...")
    tracer = Tracer()
    tracer.install()
    tracer.call_id = int(job_id)
    from coaxmode import cli
    try:
        code = cli.main(args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(_traced_cli(sys.argv[1:]))
