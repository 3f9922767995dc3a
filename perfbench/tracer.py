"""Call-site tracer for the per-layer breakdown.

trireduce modules import each other's names with ``from .x import y``, so a
caller looks a function up in its *own* module globals.  The tracer
therefore replaces every binding of a traced object in every loaded
``trireduce.*`` module (``trireduce.dynamics.forces_cartesian``,
``trireduce.hamiltonian.body_frame_fit``, ...), and methods on their class.
Nothing in ``src/`` changes; ``uninstall`` restores every binding.

Spans (name, start, end, parent, run id) are kept in memory and written out
by ``write``.  A span point whose function no longer exists is reported as
absent instead of failing the run.
"""

import importlib
import sys
import time
from collections import Counter, defaultdict

# Each span point: (metric prefix, defining module, attribute path, the
# end-to-end metric and workload it is predicted to move).
SPAN_POINTS = [
    ("cli.main", "trireduce.cli", "main", "root span of a trajectory run"),
    ("cli.load_config", "trireduce.cli", "load_config", "setup_s"),
    ("cli.cmd_simulate", "trireduce.cli", "cmd_simulate",
     "op_us on record_dense (self time: CSV formatting and writing)"),
    ("cli.cmd_collinear_report", "trireduce.cli", "cmd_collinear_report",
     "op_us on figure8_report (self time: CSV formatting and writing)"),
    ("potential.parse_potential", "trireduce.potential", "parse_potential",
     "setup_s on expr_sparse"),
    ("potential.eval_potential", "trireduce.potential", "eval_potential",
     "op_us on record_dense"),
    ("potential.potential_at_shape", "trireduce.potential", "potential_at_shape",
     "op_us on record_dense and evaluate_mix"),
    ("potential.EvalContext.from_positions", "trireduce.potential",
     "EvalContext.from_positions", "op_us on record_dense and expr_sparse"),
    ("potential.forces_cartesian", "trireduce.potential", "forces_cartesian",
     ".builtin: op_us on figure8_report; .expression: op_us on expr_sparse only"),
    ("dynamics.integrate", "trireduce.dynamics", "integrate",
     "op_us on figure8_report (self time: stepping arithmetic, overflow guard)"),
    ("dynamics.total_energy", "trireduce.dynamics", "total_energy",
     "op_us on record_dense; flat on expr_sparse and figure8_report"),
    ("dynamics.detect_collinear_passages", "trireduce.dynamics",
     "detect_collinear_passages", "op_us on figure8_report"),
    ("dynamics.conservation_report", "trireduce.dynamics", "conservation_report",
     "op_us on record_dense"),
    ("hamiltonian.evaluate_reduced", "trireduce.hamiltonian", "evaluate_reduced",
     "root span of evaluate_mix; op_us on evaluate_mix"),
    ("hamiltonian.evaluate_reduced_jacobi", "trireduce.hamiltonian",
     "evaluate_reduced_jacobi", "op_us on record_dense and evaluate_mix"),
    ("hamiltonian.fit_body_state", "trireduce.hamiltonian", "fit_body_state",
     "op_us on record_dense and evaluate_mix"),
    ("hamiltonian.reduced_hamiltonian", "trireduce.hamiltonian",
     "reduced_hamiltonian", "op_us on record_dense and evaluate_mix"),
    ("hamiltonian.collinear_hamiltonian", "trireduce.hamiltonian",
     "collinear_hamiltonian", "op_us on evaluate_mix"),
    ("hamiltonian.align_collinear_frame", "trireduce.hamiltonian",
     "align_collinear_frame", "op_us on evaluate_mix"),
    ("hamiltonian.collinear_body_state", "trireduce.hamiltonian",
     "collinear_body_state", "op_us on evaluate_mix"),
    ("reduction.shape_momenta", "trireduce.reduction", "shape_momenta",
     "op_us on record_dense and evaluate_mix"),
    ("geometry.jacobi_from_cartesian", "trireduce.geometry",
     "jacobi_from_cartesian", "op_us on record_dense and evaluate_mix"),
    ("geometry.body_frame_fit", "trireduce.geometry", "body_frame_fit",
     "op_us on record_dense and evaluate_mix"),
    ("geometry.spatial_angular_momentum", "trireduce.geometry",
     "spatial_angular_momentum", "op_us on record_dense and evaluate_mix"),
    ("geometry.CartesianState", "trireduce.geometry", "CartesianState.__init__",
     "op_us on record_dense (construction and validation per sample)"),
]

# forces_cartesian is reported per force path: builtin or expression.
SPLIT_FORCES = "potential.forces_cartesian"
FORCE_PATHS = ("builtin", "expression")

COUNTS = {
    "cli.bytes_out": "op_us on record_dense",
    "dynamics.steps": "peak_rss_mb on record_dense (with dynamics.samples)",
    "dynamics.samples": "peak_rss_mb on record_dense",
    "dynamics.passages": "failed on figure8_report",
    "hamiltonian.branch.noncollinear": "failed on evaluate_mix and figure8_report",
    "hamiltonian.branch.collinear": "failed on evaluate_mix and figure8_report",
    "hamiltonian.raised": "failed on evaluate_mix and figure8_report",
}


def span_names():
    """Span names in report order (forces split by path)."""
    names = []
    for prefix, *_ in SPAN_POINTS:
        if prefix == SPLIT_FORCES:
            names += [f"{prefix}.{path}" for path in FORCE_PATHS]
        else:
            names.append(prefix)
    return names


def _count_result(counts, prefix, args, kwargs, result):
    """Counts taken where the work happens, from a traced call's result."""
    if prefix == "hamiltonian.evaluate_reduced_jacobi":
        counts[f"hamiltonian.branch.{getattr(result, 'branch', 'unknown')}"] += 1
    elif prefix == "dynamics.integrate":
        cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
        counts["dynamics.steps"] += getattr(cfg, "steps", 0)
        counts["dynamics.samples"] += len(result)
    elif prefix == "dynamics.detect_collinear_passages":
        counts["dynamics.passages"] += len(result)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, run id)
        self.counts = Counter()
        self.absent = []
        self.run_id = 0
        self._stack = []
        self._undo = []

    def _wrap(self, prefix, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            name = prefix
            if prefix == SPLIT_FORCES:
                name += ".builtin" if args[0].builtin is not None else ".expression"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if prefix == "hamiltonian.evaluate_reduced_jacobi":
                    counts["hamiltonian.raised"] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            _count_result(counts, prefix, args, kwargs, result)
            return result

        return traced

    def install(self):
        self.absent = []
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "trireduce" or name.startswith("trireduce.")
        ]
        for prefix, module_name, path, _ in SPAN_POINTS:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(prefix)
                continue
            if outer:  # a method: patch it on its class
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(prefix, raw.__func__))
                else:
                    wrapped = self._wrap(prefix, raw)
                self._bind(owner, attr, wrapped)
                continue
            wrapped = self._wrap(prefix, raw)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._bind(module, name, wrapped)

    def _bind(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def per_span(self):
        """{name: (calls, total_ns, self_ns)}; self time is the span's
        duration minus the durations of its direct children."""
        child_ns = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table = defaultdict(lambda: [0, 0, 0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[index]
        return table

    def root_ns(self):
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,run\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
