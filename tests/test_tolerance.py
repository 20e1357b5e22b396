"""The one tolerance policy: every comparison allows slack(scale) = TOL * max(1, |scale|)."""

import json
import re
from pathlib import Path

import pytest

import chbound as cb
from chbound import cli
from chbound.entropy_core import TOL, proof_case
from chbound.mc_engine import ChainLink

SRC = Path(cb.__file__).parent


def _no_error(build) -> bool:
    try:
        build()
    except cb.ValidationError:
        return False
    return True


def _bound_params(dev):
    return _no_error(lambda: cb.BoundParams(n=1, a=(0.0,), b=1.0, c=(1.0 + dev,), t=0.0))


def _proof_case(dev):
    return proof_case(cb.NormalizedParams.symmetric(dev, 0.5)) == "degenerate"


def _certificate(dev):
    return cb.MomentCertificate((0,), 0.5 + dev, 0.5).satisfied


def _exact_tail_cutoff(dev):
    return cb.exact_tail(cb.BooleanIIDModel(1, 0.5), 1.0 + dev) == 0.5


def _range_check(dev):
    model = cb.ExplicitTableModel([([1.0 + dev], 1.0)])
    return _no_error(lambda: cb.check_support_range(model, cb.BoundParams.boolean(1, 0.5, 0.0)))


def _chain_link(dev):
    return ChainLink("x", 1.0, 1.0 + dev).passed


def _cli_tail_le_bound(dev, tmp_path, monkeypatch, capsys):
    # one atom on the threshold: the exact tail is 1, the bound is set to 1 - dev
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({"kind": "explicit_table", "params": {"support": [[[1.0], 1.0]]}}))
    monkeypatch.setattr(cli, "chernoff_bound", lambda params: 1.0 - dev)
    verdicts = []
    for argv in (["verify", "--spec", str(spec), "--c", "0.5", "--t", "0.5"],
                 ["sweep", "--n", "1", "--c", "0.5", "--t-min", "0.5", "--points", "1",
                  "--spec", str(spec)]):
        assert cli.main(argv) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        verdicts.append(result["tail_le_bound"] if "tail_le_bound" in result
                        else result["rows"][0]["tail_le_bound"])
    assert verdicts[0] == verdicts[1]
    return verdicts[0]


SITES = {
    "bound_params_range": _bound_params,
    "proof_case": _proof_case,
    "moment_certificate": _certificate,
    "exact_tail_cutoff": _exact_tail_cutoff,
    "range_check": _range_check,
    "chain_link": _chain_link,
}


@pytest.mark.parametrize("site", [*SITES, "cli_tail_le_bound"])
def test_each_site_allows_exactly_the_policy_slack(site, tmp_path, monkeypatch, capsys):
    if site == "cli_tail_le_bound":
        def accepts(dev):
            return _cli_tail_le_bound(dev, tmp_path, monkeypatch, capsys)
    else:
        accepts = SITES[site]
    assert accepts(0.0)
    assert accepts(TOL / 2)
    assert not accepts(10 * TOL)


def _policy_block(lines: list[str]) -> range:
    def find(marker: str) -> int:
        return next(i for i, line in enumerate(lines) if line.startswith(marker))

    return range(find("# -- tolerance policy"), find("# -- end of tolerance policy") + 1)


def test_tolerances_live_only_in_the_policy_block():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        allowed = _policy_block(lines) if path.name == "entropy_core.py" else range(0)
        for i, line in enumerate(lines):
            names = set(re.findall(r"\b\w*_TOL\b", line)) - {"PROB_SUM_TOL"}
            literal = re.search(r"\d(\.\d*)?e-\d+", line)
            if names or (literal and i not in allowed):
                offenders.append(f"{path.name}:{i + 1}: {line.strip()}")
    assert not offenders, "\n".join(offenders)
