"""Golden corpus: byte-identical traces, reports and stacking traces.

Each entry is the sha256 of one serialized artifact of a small fixed corpus:
the pressure-recording JSONL trace of pressure-greedy and bi-value, the
``run_experiment`` report JSON (default four policies), and the stacking
trace of the pressure-greedy reduction. The corpus covers n = 1..4, bi-value
merges near the (sqrt(3)-1)/2 threshold, bi-value runs that see a third
value and fall back to the rounded rule, and an n = 1 bi-value run whose
effective values stay raw.

Re-record (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import functools
import hashlib
import random
from fractions import Fraction

import pytest

from fairdiv import Instance, run_experiment, run_online
from fairdiv.allocator import BiValuePolicy, PressureGreedyPolicy
from fairdiv.harness import GeneratorConfig, generate_instance
from fairdiv.stacking import allocator_to_stacking, stacking_trace_to_jsonl

from conftest import random_instance


def _generated(n, m, k, D, grid, seed):
    return generate_instance(GeneratorConfig(n=n, m=m, k=k, D=Fraction(D), value_grid=grid, seed=seed))


def _random(n, m, k, seed):
    return random_instance(random.Random(seed), n=n, m=m, k=k)


CORPUS = {
    "n1-three-values": lambda: Instance(1, ((Fraction(3),), (Fraction(5, 2),), (Fraction(7),))),
    "n2-near-threshold": lambda: _generated(2, 9, 2, 4, "adversarial-near-threshold", 3),
    "n2-pow2-k2": lambda: _generated(2, 10, 2, 2, "powers-of-two", 5),
    "n2-k3-fallback": lambda: _random(2, 10, 3, 7),
    # max_pressure of these three is set by the state rebuilt at the fallback:
    # its end-state maximum, not a running maximum over the replay
    "n2-k3-late-fallback": lambda: _random(2, 6, 3, 51),
    "n2-k3-replay-peak": lambda: _random(2, 6, 3, 41),
    "n3-k3-late-fallback": lambda: _random(3, 6, 3, 107),
    "n3-near-threshold": lambda: _generated(3, 9, 2, 4, "adversarial-near-threshold", 1),
    "n3-uniform-k3-fallback": lambda: _generated(3, 9, 3, 6, "uniform-rational", 13),
    "n3-k3-fallback": lambda: _random(3, 10, 3, 3),
    "n4-near-threshold": lambda: _generated(4, 10, 2, 4, "adversarial-near-threshold", 21),
    "n4-k3-fallback": lambda: _random(4, 10, 3, 1),
}

GOLDEN = {
    'n1-three-values:trace/pressure-greedy': '6522d8c6e95e10f4296c439bafb657f8274f258f0998adf74a6fd9f8315718a3',
    'n1-three-values:trace/bi-value': '1ba4d21ba5ac6122e56497bd542bb39800d43865f9e0ff0236e83b368ab24081',
    'n1-three-values:report': '5c97cbe87c881ba95c638156fb892beee270a5c70bfdd1a76bfdc4bf9e32df57',
    'n2-near-threshold:trace/pressure-greedy': '8af89d6fe32a7eb9209dbcc66e590c3e38a26cc383a4ef48a2f0b41b52064ae7',
    'n2-near-threshold:stacking': '004e6c094caf1dec6aac270673b5904ffc78184cc1cdd7094809ebf7afc4bc47',
    'n2-near-threshold:trace/bi-value': 'c28b10d3670c074f7df2b7f1c0d343ab4336efe214b3aea8b9ac8b1fb3c09c54',
    'n2-near-threshold:report': 'da8d498bd33806c9f57d0d462329387fb3a0c0f1109f88b715deb8de52d50761',
    'n2-pow2-k2:trace/pressure-greedy': '0a8df0a0583096b68c4db4430a911f099f5e2fe566f447f1a1521255de12541a',
    'n2-pow2-k2:stacking': '5f62d2f46cd314ac1d131f981f9e986dcc719ea1f2caaae52a9317163de596ea',
    'n2-pow2-k2:trace/bi-value': '5d530ab169dab148a350a04829d6e706586a5f85b03fbb1b4718e7869c3c8458',
    'n2-pow2-k2:report': '2356995a17028ad013a66f49d8f8064e60557f2a80af01504f4cc2ff526f8605',
    'n2-k3-fallback:trace/pressure-greedy': '4843231954ed201be187116203dd91f29f5cc16d11972a3ebe5ce11e3d6f300f',
    'n2-k3-fallback:stacking': 'fdede18e4776811a1db97ed8648f4766269de57fab032278d69af8231c640a65',
    'n2-k3-fallback:trace/bi-value': 'ad4d9ac376a4872e590e68d3f3c6e8418a71fc0ad530630d3d6d23075a1f8c17',
    'n2-k3-fallback:report': '37c2730defbc7b36e53bafe9020e38ca5817a4765e39578e9fa97015ca3420cf',
    'n2-k3-late-fallback:trace/pressure-greedy': 'cb8604162e28e19ba3bee743e5efcfa7d2a6baac505f82b733268fd16b0cd43b',
    'n2-k3-late-fallback:stacking': 'ac01896f27df42a04b76b16be80c684b8188a6840d0f5a8d464d102b649ff8ba',
    'n2-k3-late-fallback:trace/bi-value': '7420c7399edef3ab1009dc9a8017adf35b742b544f0202cc80cbe9a06d2a7c51',
    'n2-k3-late-fallback:report': '6d88e6e2d26c9c2c677ceba3a13ce4886dc5212c3f3748ae3427dc3143aa932e',
    'n2-k3-replay-peak:trace/pressure-greedy': '1e17bcd7917a79b4d77124ea92de759b2ddf8bd069f2b57904d027796d264ce5',
    'n2-k3-replay-peak:stacking': '514d8cc43d69b2658f4ecb74953584b07ba21309bb886cc7b56e89a1d5c853bf',
    'n2-k3-replay-peak:trace/bi-value': '08126255eb493208a26954110ed02d06ac4c4aca0ac6313eb8b11719199fb918',
    'n2-k3-replay-peak:report': 'f7d675cd1d1f53ed4639af47cec941619d40f5e0a3532a1c074ee1056d1ed414',
    'n3-k3-late-fallback:trace/pressure-greedy': '562617a93adf86b45e8138e486989e0a3d199be4c6f3cdf093eeb3a67369b7a9',
    'n3-k3-late-fallback:stacking': '8be486d54f0781718648d10b468f8e5f8c56e1feea1e36ef3703294bc197ebfa',
    'n3-k3-late-fallback:trace/bi-value': '0adbe790291e6f27ba89408a58b4b914e3037b34e133ab88ca3508fe22b6a3fa',
    'n3-k3-late-fallback:report': '007e659b1103dd5d1f50e20b6569d314e65362b9b452edb6472974a147bd737e',
    'n3-near-threshold:trace/pressure-greedy': '33d6efe8f271d6b532790966288f48ca1390b53d03c86ff7be8a0f6ade689bca',
    'n3-near-threshold:stacking': 'f474f9af7e3c0906fc006047793f27f0262f5517e2d4df789760fe66f8580481',
    'n3-near-threshold:trace/bi-value': '46095bd70016ed2e3c09da6af345509e4b1924734c124a5e805e9bd08ef5f046',
    'n3-near-threshold:report': '274934e3b2f9f8f7431762204039895f2a3d331ca3ecebb76de33230a48ce25a',
    'n3-uniform-k3-fallback:trace/pressure-greedy': 'd0612fee8b54aa13217d21c6d84bc9d841e0a26fd7f46f212e77eb128e25bec6',
    'n3-uniform-k3-fallback:stacking': 'd87981bc5752e306ffd4bf878c43ee3dcd2b48d1b143cd3796645f54fe75b5b5',
    'n3-uniform-k3-fallback:trace/bi-value': '361cf6f9b8b1a3bba3efbd05250047a922d7083e617e9fddef0230e2491c2983',
    'n3-uniform-k3-fallback:report': '1393d85551f61958f0da038f446d3ebed4428a1b632a33f05fa16970edda281d',
    'n3-k3-fallback:trace/pressure-greedy': '86d3d478eb7a4b14660e0d5224a205a3f4998ac4238ebbab17f282b26a2294ab',
    'n3-k3-fallback:stacking': 'f5a4db75d81fac3e7c705b6b5d920127a0cf8dbdc892e74e7d10dd305223438e',
    'n3-k3-fallback:trace/bi-value': '9d356bca0d45ea5d7561c4ddc4ea5a27260421abfa17e9d8fa6227ba2438e0aa',
    'n3-k3-fallback:report': 'cad2b0867f045a2417cf203cc4b1a2aed62bae3d90b2e7a05c63d9e0be690c1c',
    'n4-near-threshold:trace/pressure-greedy': 'e6f1a287c68a8d0d781b732fbd3172f50c73d932d24e7d0990d76641db3d000d',
    'n4-near-threshold:stacking': '34012a6733617613ee93ccd852c4879edbd32bf9149c4cd5cc51938ca84d576c',
    'n4-near-threshold:trace/bi-value': 'ad97669cc507cff318b78a5147f1835055e0f0066663ac053130e0cffa0a21f8',
    'n4-near-threshold:report': '338dd1843599b6cbea191da3e0537e52f57427f3715f4ea7a519444bcf266cdb',
    'n4-k3-fallback:trace/pressure-greedy': '86f0266c90f774a697c1d6e58e11f52c24b37fab28bdc7845573d6cd660f848d',
    'n4-k3-fallback:stacking': '6c65f39b61f4f2571bd85b249068d5e8399159cd4cf4983f77de9c92595c74b1',
    'n4-k3-fallback:trace/bi-value': 'c8fc060715e852c65a6b2f0a75f79c5ef129fac9261dd6db2a207dc69936e96a',
    'n4-k3-fallback:report': '64320a071e888cfc3a2eebda1f7479990be0c84b4e0c3f9b14be6a0ed9f41a4b',
}


@functools.lru_cache(maxsize=None)
def _artifacts(case: str) -> dict[str, str]:
    inst = CORPUS[case]()
    out = {}
    for policy in (PressureGreedyPolicy(), BiValuePolicy()):
        _, trace = run_online(inst, policy)
        out[f"trace/{policy.name}"] = trace.to_jsonl()
        if policy.name == "pressure-greedy" and inst.n >= 2:
            out["stacking"] = stacking_trace_to_jsonl(allocator_to_stacking(trace, inst.n).steps)
    out["report"] = run_experiment(inst).to_json()
    return out


def _digest(key: str) -> str:
    case, artifact = key.split(":", 1)
    return hashlib.sha256(_artifacts(case)[artifact].encode("utf-8")).hexdigest()


def _all_keys() -> list[str]:
    return [f"{case}:{artifact}" for case in CORPUS for artifact in _artifacts(case)]


def test_corpus_is_fully_recorded():
    assert sorted(GOLDEN) == sorted(_all_keys())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_digest(key):
    assert _digest(key) == GOLDEN[key]


if __name__ == "__main__":
    for key in _all_keys():
        print(f"    {key!r}: {_digest(key)!r},")
