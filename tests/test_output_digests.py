"""Cross-commit byte identity of the CLI's artifacts.

Runs the criterion-10 walkthrough (seeds 11-14) in process, plus `sample-do`,
the generator route of `marginal`, a tiny `alpha-sweep` and `convergence`
experiment each, and `learn-do` and both `marginal` routes at the default
threshold, and compares the SHA-256 of every artifact with the digests stored
in `output_digests.json`. Criterion 10 only compares runs of one commit
with each other; this test catches a change that alters any output byte
against the commit that wrote the digests. A change that alters output on purpose
regenerates the file with

    PYTHONPATH=src python tests/test_output_digests.py --write

and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

from dolearn.cli import dispatch

DIGESTS = Path(__file__).with_name("output_digests.json")
WALLCLOCK = re.compile(rb'("wallclock_ms": )[^,\n]*')


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(argv)
    assert code == 0, f"dolearn {' '.join(argv)} exited {code}"
    return out.getvalue()


def walkthrough_artifacts(base: Path) -> dict:
    """Artifact name -> bytes for one walkthrough in the directory base."""
    g, mdl, smp, lrn, marg, margg, do = (
        str(base / f) for f in ("g.json", "m.json", "s.csv", "l.json", "marg.json", "marg_gen.json", "do.csv")
    )
    budget = ["--m", "8000", "--t", "20"]
    _run(["gen-graph", "--nodes", "5", "--in-degree", "2", "--ccomp-size", "2", "--x-var", "0", "--seed", "11", "--out", g])
    _run(["gen-model", "--graph", g, "--lambda", "0.25", "--seed", "12", "--out", mdl])
    _run(["sample", "--model", mdl, "--m", "8000", "--seed", "13", "--out", smp])
    _run(["learn-do", "--graph", g, "--samples", smp, "--x-var", "0", "--x-val", "1", *budget, "--seed", "14", "--out", lrn])
    eval_out = _run(["eval", "--learned", lrn, "--assignment", "v1=0,v2=1,v3=0,v4=1"])
    _run(["sample-do", "--learned", lrn, "--m", "2000", "--seed", "15", "--out", do])
    _run(["marginal", "--graph", g, "--samples", smp, "--x-var", "0", "--x-val", "1", "--targets", "v3", *budget, "--out", marg])
    _run(["marginal", "--graph", g, "--samples", smp, "--x-var", "0", "--x-val", "1", "--targets", "v3", *budget,
          "--via-generator", "--out", margg])
    blobs = {name: (base / name).read_bytes() for name in ("g.json", "m.json", "s.csv", "l.json", "marg.json", "marg_gen.json", "do.csv")}
    # The report carries a wallclock field by contract; hash it without the timing.
    rep = json.loads((base / "l.json.report.json").read_text())
    rep.pop("wallclock_ms")
    blobs["report.json"] = json.dumps(rep, sort_keys=True).encode()
    # The raw bytes too, so the writer's indent, key order and closing newline
    # are pinned; only the timing's value is masked.
    blobs["report.raw.json"] = WALLCLOCK.sub(rb"\1<masked>", (base / "l.json.report.json").read_bytes())
    blobs["eval.stdout"] = eval_out.encode()
    # The same learning with the walkthrough model as oracle: the report's
    # tv_exact pins the exact joint (hidden priors included), the exact
    # interventional and the learned model's dense form bit for bit.
    truth = str(base / "l_truth.json")
    _run(["learn-do", "--graph", g, "--samples", smp, "--x-var", "0", "--x-val", "1", *budget, "--seed", "14",
          "--truth-model", mdl, "--out", truth])
    blobs["report.truth.raw.json"] = WALLCLOCK.sub(rb"\1<masked>", Path(truth + ".report.json").read_bytes())
    # The experiment's CSV carries timings; its summary does not.
    spec, sweep = base / "sweep_spec.json", base / "sweep.csv"
    spec.write_text(json.dumps({"kind": "alpha-sweep", "alphas": [0.2], "n_effect": 2, "epsilon": 0.2,
                                "m": 200, "trials": 2, "seed": 0}))
    _run(["experiment", "--spec", str(spec), "--out", str(sweep)])
    blobs["sweep.csv.summary.json"] = (base / "sweep.csv.summary.json").read_bytes()
    # A tiny convergence run on the walkthrough model, with its threshold set.
    spec, conv = base / "conv_spec.json", base / "conv.csv"
    spec.write_text(json.dumps({"kind": "convergence", "model": mdl, "x_var": "v0", "x_val": 1,
                                "m_grid": [200, 400], "trials": 2, "seed": 3, "t": 5}))
    _run(["experiment", "--spec", str(spec), "--out", str(conv)])
    blobs["conv.csv.summary.json"] = (base / "conv.csv.summary.json").read_bytes()
    # The default threshold, which leaves rows uniform at 300 rows: learn-do and
    # marginal with --m and no --t, and the generator route with its own --seed
    # and --epsilon.
    default_t = str(base / "l_default_t.json")
    _run(["learn-do", "--graph", g, "--samples", smp, "--x-var", "0", "--x-val", "1", "--m", "300", "--seed", "14",
          "--out", default_t])
    blobs["report.default_t.raw.json"] = WALLCLOCK.sub(rb"\1<masked>", Path(default_t + ".report.json").read_bytes())
    generator = ["--via-generator", "--seed", "7", "--epsilon", "0.3"]
    for name, extra in (("marg.default_t.json", []), ("marg_gen.seed_epsilon.json", generator)):
        _run(["marginal", "--graph", g, "--samples", smp, "--x-var", "0", "--x-val", "1", "--targets", "v3", "--m", "300",
              *extra, "--out", str(base / name)])
        blobs[name] = (base / name).read_bytes()
    return blobs


def digests(base: Path) -> dict:
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in walkthrough_artifacts(base).items()}


def test_artifacts_match_stored_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())
    got = digests(tmp_path)
    assert set(got) == set(want)
    changed = sorted(name for name in want if got[name] != want[name])
    assert not changed, f"artifacts changed against the stored digests: {changed}"


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
