"""Golden bit-identity digests for the spanner builds.

Each digest is a sha256 over everything a build reports: the edge ids, the
simulated round count, the MPC accounting, the per-iteration statistics and
the whole ``extra`` dict.  The digests were recorded while the builds still
sorted with multi-key ``np.lexsort`` and joined with ``searchsorted``; any
change to the sort orders, joins or sampling that alters a single chosen
edge, round or statistic changes the digest.

Regenerate (only when an answer change is intended) with::

    PYTHONPATH=src python tests/test_build_golden.py
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math

import numpy as np
import pytest

from repro.cc_impl.spanner_cc import spanner_cc
from repro.core.baswana_sen import baswana_sen
from repro.core.general_tradeoff import general_tradeoff
from repro.graphs.specs import build_graph_from_spec
from repro.mpc_impl.spanner_mpc import spanner_mpc

T = 4


def _params(n: int) -> tuple[int, int]:
    k = max(2, math.ceil(math.log2(n)))
    return k, T


ALGORITHMS = {
    "spanner_mpc": lambda g, k, t, rng: spanner_mpc(g, k, t, rng=rng),
    "general_tradeoff": lambda g, k, t, rng: general_tradeoff(g, k, t, rng=rng),
    "baswana_sen": lambda g, k, t, rng: baswana_sen(g, k, rng=rng),
    "spanner_cc": lambda g, k, t, rng: spanner_cc(g, k, t, rng=rng),
}


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    raise TypeError(f"unhashable value {type(x)!r}")


@functools.lru_cache(maxsize=1)
def _graph(spec: str):
    return build_graph_from_spec(spec, weights="uniform", seed=0)


def build_digest(spec: str, algorithm: str, rng: int) -> str:
    g = _graph(spec)
    k, t = _params(g.n)
    res = ALGORITHMS[algorithm](g, k, t, rng)
    h = hashlib.sha256()
    h.update(np.asarray(res.edge_ids, dtype=np.int64).tobytes())
    record = {
        "rounds": res.extra.get("rounds"),
        "mpc_stats": res.extra.get("mpc"),
        "stats": [dataclasses.asdict(s) for s in res.stats],
        "iterations": res.iterations,
        "phase2_added": res.phase2_added,
        "extra": res.extra,
    }
    h.update(json.dumps(record, sort_keys=True, default=_jsonable).encode())
    return h.hexdigest()


GOLDEN = {
    ('gnm:500:3000', 'spanner_mpc', 0): 'f49f267dda0b01e436f325a186f35897bc15e67f3d2b4e4c20475e9b6fbcc936',
    ('gnm:500:3000', 'spanner_mpc', 1): '67668bfdd99a4ab39d2ba3cd0a00202b6c954cacc910820c1187d87bd5d42d7f',
    ('gnm:500:3000', 'spanner_mpc', 2): '2de877a438924b12a40e24204d9abc1afcc25acd9f770eb480488f7c2970553c',
    ('gnm:500:3000', 'general_tradeoff', 0): '14d993568a8323c0878ff29ec805182dd6f5e7f48f16930879b7f4523957bf86',
    ('gnm:500:3000', 'general_tradeoff', 1): 'ad29bcf0c9ea3cc5bc2689a99516432a61b3856ce36e5f44ce6fb91b9e8fdb38',
    ('gnm:500:3000', 'general_tradeoff', 2): '09c40723575bab0b1b6feded85491ca2b4eec7eff1cae038984e17072dd04adc',
    ('gnm:500:3000', 'baswana_sen', 0): '9cf003097659bb90bf3e78e726f33205778d6f1c3fbcb5800cc318fada8865dc',
    ('gnm:500:3000', 'baswana_sen', 1): '02b419794347db7929be89605391aa4ae83844fe63a633769e62e1b21384b5ad',
    ('gnm:500:3000', 'baswana_sen', 2): 'fa64b20eb10da98a25da2576af08727ca8d9874de42bc6426e2b058a24e5eace',
    ('gnm:500:3000', 'spanner_cc', 0): '761b2b216d23907daf7d5ecd726447550dcf02c0d5dcd0a997662f51a592a40b',
    ('gnm:500:3000', 'spanner_cc', 1): '5c61486307c5989dd3fd6498b9955f66c9ea5393daae4f6d388f78f9b284af1b',
    ('gnm:500:3000', 'spanner_cc', 2): 'dfcbdd36ae0f19dfe3e9a3399135b76e58fa6a844d681d479e990eed00cdc57f',
    ('gnm:2000:40000', 'spanner_mpc', 0): 'e2a06e0651974a85fed23127d57994c3ff0c4c4f3f859c07647a0dabba1abc4b',
    ('gnm:2000:40000', 'spanner_mpc', 1): 'a0b1544ab2a43e05352bbc46d1705db645685df0a7e3bcb30f2937aaf9acf6aa',
    ('gnm:2000:40000', 'spanner_mpc', 2): '7c124bea2e8ed0ac7dd63e4dbfe19523c6329f1e9cb754d9e79e05ebdd72af0f',
    ('gnm:2000:40000', 'general_tradeoff', 0): 'c995e2de5ef7364a1f0d8b11bec278f7202022a16b5a8e68fbfd269c156a33cd',
    ('gnm:2000:40000', 'general_tradeoff', 1): 'f657ddd7147429633a21dc07473a070cda0ea9a03f34182d05cf61d5e9854b67',
    ('gnm:2000:40000', 'general_tradeoff', 2): '588d8f62f14216535c6eca838f917b82661fa28d88bb9caf35199b18bd70e21c',
    ('gnm:2000:40000', 'baswana_sen', 0): '944093889279f5966dad590821384e78032d2a2e35e92c3673c7b3cb3fc72bbb',
    ('gnm:2000:40000', 'baswana_sen', 1): '88980e6bc05ee88c12b4365539757589196ee4b34e884c7da61731d575f9e8cd',
    ('gnm:2000:40000', 'baswana_sen', 2): '7fa24f0218a77b599420bb0aec77d9c2ec549f7d347c841499d357f871da535b',
    ('gnm:2000:40000', 'spanner_cc', 0): 'c96d3f49ee3bf42bd83250558675217c0ece1418921c49861189c39fdcb536b8',
    ('gnm:2000:40000', 'spanner_cc', 1): '80ae818133b88e12d62dd9869745a0e1454266f363cb579b557811dc2fbb6be4',
    ('gnm:2000:40000', 'spanner_cc', 2): 'fdfa3047f2839ec75b05167aa4f8bbfa41c7d9caca5d940876ac2fec6bd44831',
    ('gnm:6000:300000', 'spanner_mpc', 0): '0b4f24bb8f5f66175e2f953afdcfa4bbf2c6b84cfc7f5c5932363bacd52c30e2',
    ('gnm:6000:300000', 'spanner_mpc', 1): 'f55dccde790e65a245808b7fce07b3e690078d2a82e302b57bd26923c2cbbcec',
    ('gnm:6000:300000', 'spanner_mpc', 2): '54e65ac6eadb9026270823971813641995a8ace700cf6e0cf6505263bd18c8e4',
    ('gnm:6000:300000', 'general_tradeoff', 0): 'a26efca1226c289ddb066c6e7ee8bb37e3e030a385a870d6287166fb6326fb72',
    ('gnm:6000:300000', 'general_tradeoff', 1): 'b23c275760a379c83a0f1b5c91f26c4484a4210d66c95c485b534c2cee4ff81c',
    ('gnm:6000:300000', 'general_tradeoff', 2): '339914c3372e148f48a409caee035e77d2af25334b772a26b8f12def4f8f6128',
    ('gnm:6000:300000', 'baswana_sen', 0): 'ee52d14cc61d880b1a84a97b45000d02d2461ea9b65ea8b0ba4eab73ba3e2119',
    ('gnm:6000:300000', 'baswana_sen', 1): 'c452b05fe1a50f00491d5fb07698180a4ba6e54add33609dff0d1a51de9e49f1',
    ('gnm:6000:300000', 'baswana_sen', 2): '9c54a6bc722a02a38d02db5d07b2dfe49b23a7eb430198a412457bd5ac42a978',
    ('gnm:6000:300000', 'spanner_cc', 0): '80203094eddb84ea180ea90fd824c96364d85a698cc821dde635cdea8a92587a',
    ('gnm:6000:300000', 'spanner_cc', 1): '827c9f98554e508ce0196aa1e2c7c7be7295efdaacc8f8dfc1f5caa8909f89b2',
    ('gnm:6000:300000', 'spanner_cc', 2): '9b7023fae322ded9af29fb6e58675ead3ff99cc95a2ac2bf445dc2e1bdf9cbd1',
}

SPECS = ["gnm:500:3000", "gnm:2000:40000", "gnm:6000:300000"]
CASES = [
    pytest.param(
        spec,
        algorithm,
        rng,
        marks=[pytest.mark.slow] if spec == "gnm:6000:300000" else [],
        id=f"{spec}-{algorithm}-rng{rng}",
    )
    for spec in SPECS
    for algorithm in ALGORITHMS
    for rng in range(3)
]


@pytest.mark.parametrize("spec,algorithm,rng", CASES)
def test_build_matches_golden_digest(spec, algorithm, rng):
    assert build_digest(spec, algorithm, rng) == GOLDEN[(spec, algorithm, rng)]


if __name__ == "__main__":
    for spec in SPECS:
        for algorithm in ALGORITHMS:
            for rng in range(3):
                print(f"    ({spec!r}, {algorithm!r}, {rng}): {build_digest(spec, algorithm, rng)!r},")
