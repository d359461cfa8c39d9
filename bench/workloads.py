"""The two workloads: seeded inputs, one timed iteration each, and the
certificate checks that decide whether an iteration failed.

Inputs are generated by the harness from the seed and written to files; the
program sees only those files (config JSON) or arrays read from them.  The
checks compare every certificate value with ``reference.json``, which holds
the values this benchmark was defined against.

The module imports neckglue only inside ``Workload.setup``, so the harness
process can generate inputs without importing the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os

import numpy as np

WORKLOADS = ("flagship_export", "neck_modes")

FLAGSHIP_CONFIG = os.path.join("configs", "flagship.json")

# Tolerances of the certificate checks.
ALPHA_TOL = 1e-12          # alpha = (4, 12) is exact up to rounding
BALANCE_TOL = 1e-8         # balance residual at Gamma^-1 Lambda
FD_SUP_RTOL = 1e-10        # FD sups at seed 0 against the reference
ANALYTIC_RTOL = 1e-6       # sup|H|/eps^3 is a cancellation-limited difference
NECK4_RTOL = 1e-9          # |H| is twist-invariant; a random twist moves the sups ~2e-12
ORDER_TOL = 0.4            # observed FD order within 2 +- 0.4
JACOBI_SLACK = 1e-5        # rounding share of an O(h^2) residual of ~1e-4
ODE_SLACK = 1e-6

# neck_modes, part 1: the `neckglue neck --n 4` minimality sweep (defaults beta=1, eps=1e-3)
NECK4_LEVELS = (0.2, 0.1)
NECK4_PARAMS = dict(n=4, beta=1.0, epsilon=1e-3)

# neck_modes, part 2: criterion-5 level-1 grid (201 x 400 angles), one s stencil
JACOBI_COUNTS = (201, 400)
JACOBI_MARGIN = 0.6
JACOBI_KEEP = 0.8                 # polar band [0.8, pi - 0.8] of the residual
JACOBI_S_CENTER = 0.5 * math.pi / 3
JACOBI_HS = 2e-3
FAMILIES = ("translation", "dilation", "su", "o2n_rot", "o2n_boost")
ODE_DRAWS = 20
ODE_SPAN = (0.0, 5.0)


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------

def _orthogonal(rng, n, proper):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if proper and np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _unit(m):
    return m / np.linalg.norm(m)


def make_inputs(workload: str, seed: int, root: str, outdir: str) -> dict:
    """Write the seeded inputs of one workload under outdir and return them.

    flagship_export: one common rotation Q in SO(3) applied to the points, the
    twists (R -> Q R Q^T) and A0 (Q A0 Q^T), which leaves Gamma, Lambda and
    alpha invariant; seed 0 is the shipped file unchanged.
    neck_modes: the Jacobi-family parameters and the ODE initial data, then
    the neck twist R in O(4) (seed 0: the identity) from the same stream.
    """
    rng = np.random.default_rng(seed)
    if workload == "flagship_export":
        with open(os.path.join(root, FLAGSHIP_CONFIG)) as fh:
            doc = json.load(fh)
        if seed != 0:
            q = _orthogonal(rng, 3, proper=True)
            doc["points"] = (np.asarray(doc["points"]) @ q.T).tolist()
            doc["rotations"] = [(q @ np.asarray(r) @ q.T).tolist() for r in doc["rotations"]]
            doc["A0"] = (q @ np.asarray(doc["A0"]) @ q.T).tolist()
        path = os.path.join(outdir, "config.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return {"config": path}
    if workload == "neck_modes":
        sym = rng.standard_normal((3, 3))
        inputs = {
            "a": _unit(rng.standard_normal(3)).tolist(),
            "phase": float(rng.uniform(0.0, 2.0 * math.pi)),
            "delta": float(rng.uniform(0.5, 2.0)),
            "sym": _unit(sym + sym.T).tolist(),
            "rot": _unit(_antisym(rng)).tolist(),
            "boost": _unit(_antisym(rng)).tolist(),
            "ode": rng.uniform(-2.0, 2.0, (ODE_DRAWS, 2)).tolist(),
        }
        # drawn last, so the draws above match the ones make_reference.py samples
        rot = np.eye(4) if seed == 0 else _orthogonal(rng, 4, proper=False)
        inputs["rotation"] = rot.tolist()
        return inputs
    raise ValueError(f"unknown workload {workload!r}")


def _antisym(rng):
    m = rng.standard_normal((3, 3))
    return m - m.T


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def _rel(a, b):
    return abs(a - b) / abs(b)


class Flagship:
    """`neckglue glue <config> --export` through cli.main."""

    REF = "flagship"

    def __init__(self, inputs, outdir):
        self.config_path = inputs["config"]
        self.report = os.path.join(outdir, "report.json")
        self.ply = os.path.join(outdir, "glued.ply")
        self.digests = None

    def setup(self):
        import neckglue.assembler  # noqa: F401  (imported by the glue command)
        import neckglue.matching  # noqa: F401
        from neckglue import cli

        self.cli = cli
        self.config, self.options = cli.parse_config(self.config_path)

    def iterate(self):
        argv = ["glue", self.config_path, "--report", self.report, "--export", self.ply]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return self.cli.main(argv)

    def check(self, rc, ref, seed):
        ref = ref[self.REF]
        errors = [] if rc == 0 else [f"exit code {rc}"]
        with open(self.report) as fh:
            rep = json.load(fh)
        errors += [f"report check failed: {c['name']}" for c in rep["checks"] if not c["pass"]]
        sec = rep["sections"]
        alpha = sec["interaction"]["alpha"]
        if alpha is None or max(abs(a - b) for a, b in zip(alpha, ref["alpha"])) > ALPHA_TOL:
            errors.append(f"alpha {alpha} != {ref['alpha']}")
        balance = max(sec["balance"]["residual_per_end"])
        if not balance < BALANCE_TOL:
            errors.append(f"balance residual {balance:.3e}")
        curv = sec["curvature"]
        eps = self.config.epsilon
        values = [n["sup"] for n in curv["necks"]] + [curv["outer"]["sup_fd"]]
        analytic = curv["outer"]["sup_analytic"] / eps**3
        if not all(math.isfinite(v) for v in values + [analytic]):
            errors.append("non-finite curvature sup")
        elif seed == 0:
            for name, got, want, tol in (
                [(f"neck[{j}] FD sup", v, w, FD_SUP_RTOL)
                 for j, (v, w) in enumerate(zip(values[:-1], ref["neck_fd_sup"]))]
                + [("outer FD sup", values[-1], ref["outer_fd_sup"], FD_SUP_RTOL),
                   ("outer sup_analytic/eps^3", analytic, ref["outer_analytic_over_eps3"],
                    ANALYTIC_RTOL)]
            ):
                if not _rel(got, want) <= tol:
                    errors.append(f"{name} {got!r} vs reference {want!r}")
        return errors + self._check_export()

    # -- export ---------------------------------------------------------

    def _export_paths(self):
        return [self.ply, self.ply.rsplit(".", 1)[0] + ".csv"]

    def _check_export(self):
        """The first export is re-read and compared bit for bit with the
        assembled surface; later ones must be byte-identical to it."""
        paths = self._export_paths()
        missing = [p for p in paths if not os.path.exists(p)]
        if missing:
            return [f"export file missing: {os.path.basename(p)}" for p in missing]
        digests = [_sha256(p) for p in paths]
        errors = []
        if self.digests is None:
            rows = self._expected_rows()
            errors += _compare_ply(paths[0], rows)
            errors += _compare_csv(paths[1], rows)
            if not errors:
                self.digests = digests
        elif digests != self.digests:
            errors.append("export bytes differ from the verified first export")
        for p in paths:
            os.remove(p)
        return errors

    def _expected_rows(self):
        """(patch_id, params, coords) of every masked node, from the public
        assembly API: an independent route to what the exporters write."""
        from neckglue.assembler import GridSpec, assemble
        from neckglue.config import build_interaction_system

        opts = self.options
        system = build_interaction_system(self.config)
        grid = GridSpec(neck_s_nodes=int(opts.get("neck_s_nodes", 48)),
                        neck_angle_nodes=opts.get("neck_angle_nodes"),
                        outer_spacing=opts.get("outer_spacing"))
        surface = assemble(self.config, system.alpha, grid)
        out = []
        for pid, patch in enumerate([surface.outer] + list(surface.necks)):
            axes = [np.arange(d) * h for d, h in zip(patch.param_dims, patch.spacings)]
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
            sel = patch.mask
            out.append((pid, mesh[sel], patch.samples[sel]))
        return out


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


_PLY_TYPES = {"char": "i1", "uchar": "u1", "short": "<i2", "ushort": "<u2",
              "int": "<i4", "uint": "<u4", "float": "<f4", "double": "<f8",
              "int8": "i1", "uint8": "u1", "int16": "<i2", "uint16": "<u2",
              "int32": "<i4", "uint32": "<u4", "float32": "<f4", "float64": "<f8"}
CHUNK_ROWS = 50_000


def _expected_columns(rows, names):
    """Map column names (x y z c3.. / c0.., patch_id, p0..) to the expected
    values, concatenated over patches."""
    ids = np.concatenate([np.full(len(c), pid, float) for pid, _, c in rows])
    pars = np.concatenate([p for _, p, _ in rows])
    coords = np.concatenate([c for _, _, c in rows])
    cols = {}
    for i, name in enumerate(names):
        if name == "patch_id":
            cols[i] = ids
        elif name in ("x", "y", "z"):
            cols[i] = coords[:, "xyz".index(name)]
        elif name[0] == "c":
            cols[i] = coords[:, int(name[1:])]
        elif name[0] == "p":
            cols[i] = pars[:, int(name[1:])]
        else:
            raise ValueError(f"unexpected export column {name!r}")
    return cols, len(ids), coords.shape[1] + pars.shape[1] + 1


def _compare_chunks(label, chunks, rows, names):
    """Compare an iterator of (k, ncol) float arrays with the expected rows,
    bit for bit, holding one chunk in memory at a time."""
    try:
        cols, total, width = _expected_columns(rows, names)
    except ValueError as exc:
        return [f"{label}: {exc}"]
    if len(cols) != width:
        return [f"{label}: {len(cols)} columns, expected {width}"]
    seen = 0
    for block in chunks:
        k = block.shape[0]
        if seen + k > total:
            return [f"{label}: more than {total} rows"]
        for i, want in cols.items():
            if not np.array_equal(block[:, i], want[seen:seen + k]):
                return [f"{label}: column {names[i]} differs near row {seen}"]
        seen += k
    return [] if seen == total else [f"{label}: {seen} rows, expected {total}"]


def _text_chunks(fh, delimiter):
    while True:
        lines = list(itertools.islice(fh, CHUNK_ROWS))
        if not lines:
            return
        yield np.loadtxt(lines, delimiter=delimiter, ndmin=2)


def _binary_chunks(fh, dtype):
    while True:
        rec = np.fromfile(fh, dtype=dtype, count=CHUNK_ROWS)
        if rec.size == 0:
            return
        yield np.stack([rec[n].astype(float) for n in dtype.names], axis=1)


def _compare_ply(path, rows):
    with open(path, "rb") as fh:
        header = []
        while True:
            line = fh.readline()
            if not line:
                return [f"{path}: no end_header"]
            line = line.decode("ascii").strip()
            header.append(line)
            if line == "end_header":
                break
        fmt = next((h.split()[1] for h in header if h.startswith("format")), None)
        props = [h.split() for h in header if h.startswith("property")]
        names = [p[-1] for p in props]
        if fmt == "ascii":
            chunks = _text_chunks(fh, None)
        elif fmt == "binary_little_endian":
            dtype = np.dtype([(p[-1], _PLY_TYPES[p[1]]) for p in props])
            chunks = _binary_chunks(fh, dtype)
        else:
            return [f"{path}: unsupported PLY format {fmt!r}"]
        return _compare_chunks("PLY", chunks, rows, names)


def _compare_csv(path, rows):
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        return _compare_chunks("CSV", _text_chunks(fh, ","), rows, names)


class Neck4:
    """The `neckglue neck --n 4` minimality sweep with a seeded twist R."""

    REF = "neck4_minimality"

    def __init__(self, inputs):
        self.rotation = np.asarray(inputs["rotation"])

    def setup(self):
        from neckglue import geometry, neck

        self.geometry, self.neck = geometry, neck

    def _patch(self, params, h):
        # same grids as the neck command
        n = params.n
        t_nodes = int(round(2.4 / h)) + 1
        polar = max(9, int(round((np.pi - 1.0) / h)) | 1)
        azim = max(16, int(round(2 * np.pi / h)))
        grids = self.neck.default_angle_grids(n, (polar,) * (n - 2) + (azim,), margin=0.5)
        return self.neck.neck_patch(params, angle_grids=grids,
                                    t_grid=np.linspace(-1.2, 1.2, t_nodes))

    def iterate(self):
        params = self.neck.NeckParams(rotation=self.rotation, **NECK4_PARAMS)
        sups = []
        for h in NECK4_LEVELS:
            H, valid = self.geometry.mean_curvature_field(self._patch(params, h))
            sups.append(float(np.max(np.linalg.norm(H, axis=-1)[valid])))
        return sups

    def check(self, sups, ref, seed):
        ref = ref[self.REF]
        errors = []
        order = math.log2(sups[0] / sups[1])
        if not abs(order - 2.0) <= ORDER_TOL:
            errors.append(f"FD order {order:.4f} outside 2 +- {ORDER_TOL}")
        for level, got, want in zip(NECK4_LEVELS, sups, ref["fd_sup_by_level"]):
            if not _rel(got, want) <= NECK4_RTOL:
                errors.append(f"FD sup at h={level}: {got!r} vs reference {want!r}")
        return errors


def jacobi_grids(neck):
    grids = neck.default_angle_grids(3, JACOBI_COUNTS, margin=JACOBI_MARGIN)
    keep = (grids[0] >= JACOBI_KEEP) & (grids[0] <= math.pi - JACOBI_KEEP)
    s = JACOBI_S_CENTER + JACOBI_HS * np.arange(-2, 3)
    return s, grids, keep


def jacobi_residual(neck, kind, s, grids, keep, **kw):
    """sup |F| + |T| of the linearized operator applied to one closed-form
    Jacobi field, over valid nodes of the polar band."""
    out = neck.linearized_apply(neck.jacobi_field(kind, 3, s, grids, **kw))
    resid = np.abs(out.f) + np.linalg.norm(out.T, axis=-1)
    return float(resid[out.valid & keep[None, :, None]].max())


def jacobi_basis():
    """Unit parameter sets spanning each family.  Every family is linear in
    its parameters (translation in (a cos phase, a sin phase)), so the
    residual of a seeded field is at most the matching combination of the
    basis residuals: the per-seed bound derived from the reference."""
    eye = np.eye(3)
    basis = {"translation": [], "dilation": [dict(delta=1.0)], "su": [],
             "o2n_rot": [], "o2n_boost": []}
    for i in range(3):
        for phase in (0.0, math.pi / 2):
            basis["translation"].append(dict(a=eye[i], alpha=phase))
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        m = np.zeros((3, 3))
        m[i, j] = m[j, i] = 1.0
        basis["su"].append(dict(A=m))
    for i, j in itertools.combinations(range(3), 2):
        m = np.zeros((3, 3))
        m[i, j], m[j, i] = 1.0, -1.0
        basis["o2n_rot"].append(dict(A=m))
        basis["o2n_boost"].append(dict(A=m))
    return basis


def jacobi_coefficients(inputs):
    """Per family: the seeded parameters and their coordinates in the basis."""
    a = np.asarray(inputs["a"])
    ph = inputs["phase"]
    sym = np.asarray(inputs["sym"])
    iu = np.triu_indices(3)
    iu1 = np.triu_indices(3, 1)
    fams = {
        "translation": (dict(a=a, alpha=ph),
                        np.ravel([[ai * math.cos(ph), ai * math.sin(ph)] for ai in a])),
        "dilation": (dict(delta=inputs["delta"]), np.array([inputs["delta"]])),
        "su": (dict(A=sym), sym[iu]),
    }
    for kind in ("o2n_rot", "o2n_boost"):
        m = np.asarray(inputs["rot" if kind == "o2n_rot" else "boost"])
        fams[kind] = (dict(A=m), m[iu1])
    return fams


def ode_worst(spectrum, pairs):
    """Criterion-8 oracle: integrate the n = 3, k = 1 frozen system from the
    closed-form decaying data (a0, b0, a0', b0') and return the largest
    deviation from the closed form."""
    worst = 0.0
    for a0, b0 in pairs:
        A, B, rates, _, ev = spectrum.exterior_mode_solve(3, a0, b0)
        da0 = rates[0] * 2 * A + rates[1] * B
        db0 = -rates[0] * A + rates[1] * B
        sol = spectrum.integrate_mode_system(3, 1, "asymptotic", [a0, b0, da0, db0], ODE_SPAN)
        aa, bb = ev(sol.t)
        worst = max(worst, float(np.max(np.abs(sol.a - aa))), float(np.max(np.abs(sol.b - bb))))
    return worst


class JacobiModes:
    """linearized_apply on the five Jacobi families plus the criterion-8
    exterior-mode oracle (seeded DOP853 integrations)."""

    REF = "jacobi_modes"

    def __init__(self, inputs):
        self.inputs = inputs
        self.families = jacobi_coefficients(inputs)

    def setup(self):
        from neckglue import neck, spectrum

        self.neck, self.spectrum = neck, spectrum

    def iterate(self):
        s, grids, keep = jacobi_grids(self.neck)
        resid = {kind: jacobi_residual(self.neck, kind, s, grids, keep, **self.families[kind][0])
                 for kind in FAMILIES}
        return resid, ode_worst(self.spectrum, self.inputs["ode"])

    def check(self, outcome, ref, seed):
        ref = ref[self.REF]
        resid, worst = outcome
        errors = []
        for kind in FAMILIES:
            coef = self.families[kind][1]
            bound = float(np.abs(coef) @ np.asarray(ref["basis_residual"][kind]))
            if seed == 0:
                bound = min(bound, ref["seed0_residual"][kind])
            if not resid[kind] <= bound * (1 + JACOBI_SLACK):
                errors.append(f"Jacobi {kind} residual {resid[kind]:.6e} above {bound:.6e}")
        bound = ref["seed0_ode_worst"] if seed == 0 else ref["ode_worst_bound"]
        if not worst <= bound * (1 + ODE_SLACK):
            errors.append(f"ODE oracle deviation {worst:.3e} above {bound:.3e}")
        return errors


class NeckModes:
    """The neck-only paths in one iteration: the n = 4 minimality sweep, then
    the Jacobi families and the exterior-mode oracle."""

    def __init__(self, inputs, outdir):
        self.parts = (Neck4(inputs), JacobiModes(inputs))

    def setup(self):
        for part in self.parts:
            part.setup()

    def iterate(self):
        return [part.iterate() for part in self.parts]

    def check(self, outcome, ref, seed):
        return [err for part, out in zip(self.parts, outcome)
                for err in part.check(out, ref, seed)]


def build(workload, inputs, outdir):
    cls = {"flagship_export": Flagship, "neck_modes": NeckModes}[workload]
    return cls(inputs, outdir)
