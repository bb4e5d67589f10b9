"""The reference ladder: one traced verify-all per lattice size, stage by stage.

Usage, from the root of a checkout:

    python3 perfbench/ladder.py [n,L ...]        # default: 1,4 1,8 1,12 2,3

Each rung is the lattice-verify workload (ew-reference with a Wilson line
drawn from seed 0) moved to the 2n-torus with L sites per axis, run once
through the in-process `fermimass verify-all` with the tracer installed,
and its output checked as in the benchmark.  It prints the self time of
each stage and the process's peak RSS so far, which for rungs given in
increasing size is the rung's own peak.  n=2, L=4 (N = 3072) needs about
4 GB and two minutes or more; it is not in the default list.  BLAS/OpenMP
run on one thread, as in the benchmark.
"""

import json
import os
import resource
import shutil
import sys
import time

import program

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 0

STAGES = (
    ("minimize", "higgs_vacuum.minimize_s"),
    ("mass_matrix", "yukawa_mass.mass_matrix_s"),
    ("lemma", "yukawa_mass.lemma_verify_s"),
    ("dirac_build", "lattice_dirac.dirac_build_s"),
    ("spectrum", "lattice_dirac.spectrum_s"),
    ("connection", "lattice_dirac.connection_build_s"),
    ("contraction", "lattice_dirac.contraction_s"),
    ("curvature", "lattice_dirac.curvature_s"),
    ("laplacian", "lattice_dirac.laplacian_s"),
    ("potential", "lattice_dirac.potential_s"),
)


def main(argv):
    rungs = [tuple(int(v) for v in r.split(",")) for r in (argv or ["1,4", "1,8", "1,12", "2,3"])]
    program.pin_threads(1)
    program.import_program(os.getcwd())
    import tracing
    import workloads

    workdir = os.path.join(HERE, "out", f"ladder-{os.getpid()}")
    os.makedirs(workdir)
    rows = []
    try:
        for n, L in rungs:
            rung = type("Rung", (workloads.LatticeVerify,), {"N_HALF": n, "L": L, "WARM_L": L})
            [(run, check)] = rung(SEED, workdir).round()
            tracer = tracing.Tracer()
            with tracer.installed():
                t0 = time.perf_counter()
                tracer.op(run)
                total = time.perf_counter() - t0
            layer = tracer.layer_metrics()
            row = {"n": n, "L": L, "N": layer["lattice_dirac.matrix_side"][0],
                   "check": "; ".join(check(None)) or "ok", "total_s": total,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            row.update({stage: layer[name][0] for stage, name in STAGES})
            rows.append(row)
            print(" ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in row.items()), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(HERE, "out", "ladder.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
    print(f"written {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
