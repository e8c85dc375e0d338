"""Golden corpus: byte-identical traces, reports and stacking traces.

Each entry is the sha256 of one serialized artifact of a small fixed corpus:
the pressure-recording JSONL trace of pressure-greedy and bi-value, the
``run_experiment`` report JSON (default four policies), and the stacking
trace of the pressure-greedy reduction. The corpus covers n = 1..4, bi-value
merges near the (sqrt(3)-1)/2 threshold, bi-value runs that see a third
value and fall back to the rounded rule, an n = 1 bi-value run whose
effective values stay raw, and one instance past the exact-MMS search guard,
whose report holds interval outcomes.

Every case within the exact-MMS search guard adds its ``fairdiv mms``
report. Some cases add the ``certify_ratio`` certificates of the
pressure-greedy allocation (optionally with one extra witness partition), or
the four files ``fairdiv run`` writes (allocation, trace, JSON report, CSV
report) for one policy.

A second corpus of short adversary games pins each game's certificate JSON
and, for the recursive game, its window events.

Re-record (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import tempfile
from fractions import Fraction

import pytest

from fairdiv import (
    Instance,
    TwoAgentAdversary,
    certify_ratio,
    instance_to_json,
    load_instance,
    make_recursive_adversary,
    parse_rational,
    play_game,
    replay_stacking_trace,
    run_experiment,
    run_online,
)
from fairdiv.adversary import _build_certificate, agent_mms, scaled_disutilities
from fairdiv.allocator import BiValuePolicy, ExternalPolicy, PressureGreedyPolicy, make_policy
from fairdiv.cli import main
from fairdiv.harness import GeneratorConfig, generate_instance
from fairdiv.mms import exact_search_limit
from fairdiv.stacking import allocator_to_stacking, stacking_trace_to_jsonl

from conftest import random_instance


def _generated(n, m, k, D, grid, seed):
    return generate_instance(GeneratorConfig(n=n, m=m, k=k, D=Fraction(D), value_grid=grid, seed=seed))


def _random(n, m, k, seed):
    return random_instance(random.Random(seed), n=n, m=m, k=k)


# One instance file in non-canonical spellings: "2/4" and "1/2", "06" and the
# integer 6, the integer 3 and "3" name the same values. Its runs must match
# those of its canonical twin, which instance_to_json writes.
NONCANONICAL = (
    '{"items": [{"d": ["2/4", "06", 3]}, {"d": ["1/2", 6, "3"]}, {"d": [1, "2/4", "3/1"]},'
    ' {"d": ["1/1", "1/2", "9/6"]}, {"d": ["4/8", 6, "3/2"]}, {"d": [2, "06", "03"]},'
    ' {"d": ["2", "1/2", 3]}, {"d": ["3/6", "6/1", "6/4"]}, {"d": ["1", "06", "3"]}], "n": 3}'
)

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
    "n3-noncanonical": lambda: load_instance(NONCANONICAL),
    # m = 15 is one past the n = 4 exact-search guard
    "n4-past-guard": lambda: _random(4, 15, 2, 9),
}

# Cases whose pressure-greedy allocation is certified, mapped to the extra
# witness partitions (1-based item indices) offered to each agent's MMS record.
CERTIFIED = {
    "n2-k3-fallback": [[[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]],
    "n4-past-guard": None,
    # beats the largest-first and type-union witnesses for agent 3 (30/13 < 31/13)
    "n4-past-guard+witness": [[[2, 9], [1, 3, 11], [4, 5, 6, 7, 8], [10, 12, 13, 14, 15]]],
}

# Cases run through ``fairdiv run``, with the policy each one uses.
CLI_RUNS = {
    "n3-near-threshold": ("pressure-greedy", "bi-value"),
    "n3-noncanonical": ("pressure-greedy", "bi-value"),
}

# ``fairdiv run`` at the benchmark's stream shapes, with the one policy each
# runs: pressure-greedy on n=8, m=1000, k=4 powers of two, and bi-value on
# n=8, m=2000, k=2 near-threshold pairs, whose traces rewrite a value's
# effective entry at a merge after earlier steps recorded the old one.
STREAM_RUNS = {
    "stream-pressure-greedy": (lambda: _generated(8, 1000, 4, 8, "powers-of-two", 11), "pressure-greedy"),
    "stream-bi-value": (lambda: _generated(8, 2000, 2, 4, "adversarial-near-threshold", 12), "bi-value"),
}

# Adversary games: (adversary, policy, budget). Each runs in well under 0.05 s.
GAMES = {
    # base-window, lifted twice; 3 rounds
    "n3-dump-to-one": lambda: (make_recursive_adversary(3, 1, 1000), make_policy("dump-to-one"), 1000),
    # lifted at level 3; 15 rounds
    "n3-mixture7": lambda: (make_recursive_adversary(3, 1, 1000), make_policy("mixture:7"), 1000),
    # bin-packing at level 3; 39 rounds
    "n3-own-target": lambda: (make_recursive_adversary(3, 1, 1), ExternalPolicy(lambda d: 3), 200),
    # bin-packing at level 2; 122 rounds
    "n2-own-target": lambda: (make_recursive_adversary(2, 1, 100), ExternalPolicy(lambda d: 2), 1000),
    # budget exhausted: certify_ratio past the exact-search guard
    "n3-exhausted": lambda: (make_recursive_adversary(3, 1, 60), PressureGreedyPolicy(), 60),
    "two-agent": lambda: (TwoAgentAdversary(Fraction(1, 2)), PressureGreedyPolicy(), 10000),
    # agent 2 absorbs every item, so the split witness is certified past the
    # n = 2 exact-search guard; 31 and 61 rounds
    "two-agent-eps10": lambda: (TwoAgentAdversary(Fraction(1, 10)), ExternalPolicy(lambda d: 2), 10000),
    "two-agent-eps20": lambda: (TwoAgentAdversary(Fraction(1, 20)), ExternalPolicy(lambda d: 2), 10000),
}

GOLDEN = {
    'n1-three-values:trace/pressure-greedy': '6522d8c6e95e10f4296c439bafb657f8274f258f0998adf74a6fd9f8315718a3',
    'n1-three-values:trace/bi-value': '1ba4d21ba5ac6122e56497bd542bb39800d43865f9e0ff0236e83b368ab24081',
    'n1-three-values:report': '5c97cbe87c881ba95c638156fb892beee270a5c70bfdd1a76bfdc4bf9e32df57',
    'n1-three-values:mms': 'f111877988ee31db9025074cfccfdcbe96e1f5343f57a238d340b5b19cb0a3c6',
    'n2-near-threshold:trace/pressure-greedy': '8af89d6fe32a7eb9209dbcc66e590c3e38a26cc383a4ef48a2f0b41b52064ae7',
    'n2-near-threshold:stacking': '004e6c094caf1dec6aac270673b5904ffc78184cc1cdd7094809ebf7afc4bc47',
    'n2-near-threshold:trace/bi-value': 'c28b10d3670c074f7df2b7f1c0d343ab4336efe214b3aea8b9ac8b1fb3c09c54',
    'n2-near-threshold:report': 'da8d498bd33806c9f57d0d462329387fb3a0c0f1109f88b715deb8de52d50761',
    'n2-near-threshold:mms': 'b885fdff6ffc97dddb6bba28718d219643139098cbb247d3ec1226cb5667a1be',
    'n2-pow2-k2:trace/pressure-greedy': '0a8df0a0583096b68c4db4430a911f099f5e2fe566f447f1a1521255de12541a',
    'n2-pow2-k2:stacking': '5f62d2f46cd314ac1d131f981f9e986dcc719ea1f2caaae52a9317163de596ea',
    'n2-pow2-k2:trace/bi-value': '5d530ab169dab148a350a04829d6e706586a5f85b03fbb1b4718e7869c3c8458',
    'n2-pow2-k2:report': '2356995a17028ad013a66f49d8f8064e60557f2a80af01504f4cc2ff526f8605',
    'n2-pow2-k2:mms': '7789ea6309075e2738aa6ac8ac4d5398ebd3c09e49d819e8933eb4604b13d908',
    'n2-k3-fallback:trace/pressure-greedy': '4843231954ed201be187116203dd91f29f5cc16d11972a3ebe5ce11e3d6f300f',
    'n2-k3-fallback:stacking': 'fdede18e4776811a1db97ed8648f4766269de57fab032278d69af8231c640a65',
    'n2-k3-fallback:trace/bi-value': 'ad4d9ac376a4872e590e68d3f3c6e8418a71fc0ad530630d3d6d23075a1f8c17',
    'n2-k3-fallback:report': '37c2730defbc7b36e53bafe9020e38ca5817a4765e39578e9fa97015ca3420cf',
    'n2-k3-fallback:certificates': '83399e7d463446d9d194184e8e8e2be8e0361143cc81daf135c4fcbbb32ae240',
    'n2-k3-fallback:mms': '66f039591a52cf5dab3b344054220cfd8e0970b3ff19037ae821a1a9e1aaf784',
    'n2-k3-late-fallback:trace/pressure-greedy': 'cb8604162e28e19ba3bee743e5efcfa7d2a6baac505f82b733268fd16b0cd43b',
    'n2-k3-late-fallback:stacking': 'ac01896f27df42a04b76b16be80c684b8188a6840d0f5a8d464d102b649ff8ba',
    'n2-k3-late-fallback:trace/bi-value': '7420c7399edef3ab1009dc9a8017adf35b742b544f0202cc80cbe9a06d2a7c51',
    'n2-k3-late-fallback:report': '6d88e6e2d26c9c2c677ceba3a13ce4886dc5212c3f3748ae3427dc3143aa932e',
    'n2-k3-late-fallback:mms': '655ffd36991147cd6b8f14aaac4908fd9ba66d399705635e39f5a908f94fc711',
    'n2-k3-replay-peak:trace/pressure-greedy': '1e17bcd7917a79b4d77124ea92de759b2ddf8bd069f2b57904d027796d264ce5',
    'n2-k3-replay-peak:stacking': '514d8cc43d69b2658f4ecb74953584b07ba21309bb886cc7b56e89a1d5c853bf',
    'n2-k3-replay-peak:trace/bi-value': '08126255eb493208a26954110ed02d06ac4c4aca0ac6313eb8b11719199fb918',
    'n2-k3-replay-peak:report': 'f7d675cd1d1f53ed4639af47cec941619d40f5e0a3532a1c074ee1056d1ed414',
    'n2-k3-replay-peak:mms': '43eb5715b2ead676b45ca22dedbc675adc55e752ce3f1a347a27cff2a5378f2e',
    'n3-k3-late-fallback:trace/pressure-greedy': '562617a93adf86b45e8138e486989e0a3d199be4c6f3cdf093eeb3a67369b7a9',
    'n3-k3-late-fallback:stacking': '8be486d54f0781718648d10b468f8e5f8c56e1feea1e36ef3703294bc197ebfa',
    'n3-k3-late-fallback:trace/bi-value': '0adbe790291e6f27ba89408a58b4b914e3037b34e133ab88ca3508fe22b6a3fa',
    'n3-k3-late-fallback:report': '007e659b1103dd5d1f50e20b6569d314e65362b9b452edb6472974a147bd737e',
    'n3-k3-late-fallback:mms': '06acbdee3a9ce7e23b8c9e64d18399e2bcff376645520de2d029c2e6ce1af67f',
    'n3-near-threshold:trace/pressure-greedy': '33d6efe8f271d6b532790966288f48ca1390b53d03c86ff7be8a0f6ade689bca',
    'n3-near-threshold:stacking': 'f474f9af7e3c0906fc006047793f27f0262f5517e2d4df789760fe66f8580481',
    'n3-near-threshold:trace/bi-value': '46095bd70016ed2e3c09da6af345509e4b1924734c124a5e805e9bd08ef5f046',
    'n3-near-threshold:report': '274934e3b2f9f8f7431762204039895f2a3d331ca3ecebb76de33230a48ce25a',
    'n3-near-threshold:cli/pressure-greedy/allocation': '0f5afdd1325c09c83c4240758c28f19cfffd4a4d5abc696e56cc00f314b309c1',
    'n3-near-threshold:cli/pressure-greedy/trace': '33d6efe8f271d6b532790966288f48ca1390b53d03c86ff7be8a0f6ade689bca',
    'n3-near-threshold:cli/pressure-greedy/report.json': '293c263b7606de4e40e9edd8e8e8486676db147ef95f36c4a317c54ccc42d3a1',
    'n3-near-threshold:cli/pressure-greedy/report.csv': 'c8a56b1b86ec491243c926b693f0198eff93e14f3ce906493ea1002b6f8fa87b',
    'n3-near-threshold:cli/bi-value/allocation': '3d058e682116037d41b216418f0439b14baa31f3c885e496d1054b332f205ab8',
    'n3-near-threshold:cli/bi-value/trace': '46095bd70016ed2e3c09da6af345509e4b1924734c124a5e805e9bd08ef5f046',
    'n3-near-threshold:cli/bi-value/report.json': '0a304d2746e552182231d5b0ce88a9ea4b07c7041122fe4f7a11b1ba6be50ca0',
    'n3-near-threshold:cli/bi-value/report.csv': '07b8e14165ff95e48e003dfe876e337da15509e65942fc56af82297d061b7e96',
    'n3-near-threshold:mms': 'be05709d5a3d31f624a356706b274c6a4dc88b94ed7922dc61b39411d50b639b',
    'n3-uniform-k3-fallback:trace/pressure-greedy': 'd0612fee8b54aa13217d21c6d84bc9d841e0a26fd7f46f212e77eb128e25bec6',
    'n3-uniform-k3-fallback:stacking': 'd87981bc5752e306ffd4bf878c43ee3dcd2b48d1b143cd3796645f54fe75b5b5',
    'n3-uniform-k3-fallback:trace/bi-value': '361cf6f9b8b1a3bba3efbd05250047a922d7083e617e9fddef0230e2491c2983',
    'n3-uniform-k3-fallback:report': '1393d85551f61958f0da038f446d3ebed4428a1b632a33f05fa16970edda281d',
    'n3-uniform-k3-fallback:mms': 'cb1f04a111ebb883f2d47c5d25565fb3b9d59b8452b3f6027be71aadc3a2fad5',
    'n3-k3-fallback:trace/pressure-greedy': '86d3d478eb7a4b14660e0d5224a205a3f4998ac4238ebbab17f282b26a2294ab',
    'n3-k3-fallback:stacking': 'f5a4db75d81fac3e7c705b6b5d920127a0cf8dbdc892e74e7d10dd305223438e',
    'n3-k3-fallback:trace/bi-value': '9d356bca0d45ea5d7561c4ddc4ea5a27260421abfa17e9d8fa6227ba2438e0aa',
    'n3-k3-fallback:report': 'cad2b0867f045a2417cf203cc4b1a2aed62bae3d90b2e7a05c63d9e0be690c1c',
    'n3-k3-fallback:mms': '7e1a2240db84516dd6ff341c84900f3dfdb728396ec4d94ce5c1636374cd51b9',
    'n4-near-threshold:trace/pressure-greedy': 'e6f1a287c68a8d0d781b732fbd3172f50c73d932d24e7d0990d76641db3d000d',
    'n4-near-threshold:stacking': '34012a6733617613ee93ccd852c4879edbd32bf9149c4cd5cc51938ca84d576c',
    'n4-near-threshold:trace/bi-value': 'ad97669cc507cff318b78a5147f1835055e0f0066663ac053130e0cffa0a21f8',
    'n4-near-threshold:report': '338dd1843599b6cbea191da3e0537e52f57427f3715f4ea7a519444bcf266cdb',
    'n4-near-threshold:mms': 'ee01cb74b1eb32db5d9136c4ff3db6abfe4e22784e02a141a534a5c1cd8b17f9',
    'n4-k3-fallback:trace/pressure-greedy': '86f0266c90f774a697c1d6e58e11f52c24b37fab28bdc7845573d6cd660f848d',
    'n4-k3-fallback:stacking': '6c65f39b61f4f2571bd85b249068d5e8399159cd4cf4983f77de9c92595c74b1',
    'n4-k3-fallback:trace/bi-value': 'c8fc060715e852c65a6b2f0a75f79c5ef129fac9261dd6db2a207dc69936e96a',
    'n4-k3-fallback:report': '64320a071e888cfc3a2eebda1f7479990be0c84b4e0c3f9b14be6a0ed9f41a4b',
    'n4-k3-fallback:mms': '6fae568d65ae378dce4e0c92ae2149b254aeb4680dc40836ab07f4a779a45bb6',
    'n4-past-guard:trace/pressure-greedy': 'e3a14669d523c4cb1a65d4449c5cc29c28cf363bcf472ec91acb52f5939128aa',
    'n4-past-guard:stacking': '3c24792d3c24e5ed15682c8fa7d2b79e9dbe9c18b7a6df989d0cb987a71097f9',
    'n4-past-guard:trace/bi-value': '7459dee0235f50094b8736ec661032af30b49f88aaac2b7795efcd6b6ab7b27d',
    'n4-past-guard:report': '6fc48d344e2bd79c499bafcd25371e98df3cafb2d1b254b75170ddc3c2171933',
    'n4-past-guard:certificates': 'aa3b3b1d5115dfa8d4d1a02f4c94ec94abcaa4065b145b9e6144176f68c18dc8',
    'n4-past-guard:certificates+witness': 'c3360afcb59812b0943a4090dbec44c7b2354b64b9165f43227f16cf51a5ed87',
    'n3-noncanonical:trace/pressure-greedy': 'cee290bb56fda43b647795f6162becbf092d92d8d58f1a7010598185dc5550e4',
    'n3-noncanonical:stacking': '050de7e87ca3c93b7f288cf8251532fcc16579078affe34124e9a1093c399bee',
    'n3-noncanonical:trace/bi-value': '26476b0138201d11c3ec34c45f4cfb96b34b3f12a5139a819345ce996a774e30',
    'n3-noncanonical:report': 'e95e3720d4bd7319e0e2558da5e6e58e33a88cebd6f8cc96cfd02419254e81a6',
    'n3-noncanonical:cli/pressure-greedy/allocation': '7c897b36b00a47ab0538a5b4813f91e60f762f561d0de14ca234cbe541688756',
    'n3-noncanonical:cli/pressure-greedy/trace': 'cee290bb56fda43b647795f6162becbf092d92d8d58f1a7010598185dc5550e4',
    'n3-noncanonical:cli/pressure-greedy/report.json': '315722cf909ea3ee671055c3b968c0d2c8bccc3f8c0c432294ebc812328579dc',
    'n3-noncanonical:cli/pressure-greedy/report.csv': 'cad84bcb4f41365ba165677d7756de0b6e0909fab0072ec06498646c7568aae8',
    'n3-noncanonical:cli/bi-value/allocation': '49658dbb45621c5274513e8f4414c7262cc39f3e8ff62cdc77ed106772379fea',
    'n3-noncanonical:cli/bi-value/trace': '26476b0138201d11c3ec34c45f4cfb96b34b3f12a5139a819345ce996a774e30',
    'n3-noncanonical:cli/bi-value/report.json': 'c45c3be4df09ed7a21cc53cb4f837dc8229efe109abbf4df6c7946aae6e13a3c',
    'n3-noncanonical:cli/bi-value/report.csv': '2857b55e171f28eb471ffa914a71d8fb82fe8da74cd3e407b163c95562f58e68',
    'n3-noncanonical:mms': 'bc21a788d8a54bf7b84d6ee666dbf69405f16e64543f11ea62c143d7ee127346',
    'stream/stream-pressure-greedy:cli/pressure-greedy/allocation': 'b22c2ae44210277267131744c1e5d4b793c0e75c776f1bbacb572b388e04f069',
    'stream/stream-pressure-greedy:cli/pressure-greedy/trace': '2db1704d69b95c55cd0a4a0c61971060f80467837be0fd57fcdb180f8ea8bbb9',
    'stream/stream-pressure-greedy:cli/pressure-greedy/report.json': '3773846ee31afd1b24ba94d3403b2c5a7c23692ba5050daec41b5e7b80975cb5',
    'stream/stream-pressure-greedy:cli/pressure-greedy/report.csv': 'ca71cee6b9101bdf8aba3fe73811c9796eb184c8dd6a54783ffad912776ed25a',
    'stream/stream-bi-value:cli/bi-value/allocation': '7b7832f87b8db7cc9023a5413cf716815a03b818ff8bdf98ca95af177f26e217',
    'stream/stream-bi-value:cli/bi-value/trace': 'f3e0fbdeefc8a8f03969f12c062b117af0a364cb56f373792445d26f57b2772b',
    'stream/stream-bi-value:cli/bi-value/report.json': 'ed8ef5b899fd8c2815675b6a32ec3b668525d872c2de01106e56a00c07e40148',
    'stream/stream-bi-value:cli/bi-value/report.csv': '73300f4a6c90214bcb81e853ae1317b299761612f962d2272df4a85e51feb345',
    'game/n3-dump-to-one:certificate': '57ca9d90f864a0089164e7681975a882e905cfefdf2aa77e6bed935d358755eb',
    'game/n3-dump-to-one:events': 'c72411011528b7eddca3359ea6e7ef18aeb108b4c644356f27f2e12466d9f2ba',
    'game/n3-mixture7:certificate': 'aea38c9c4edd39a4ccd6aab34db6e73a5e4cd0b6eeb2d3b846e5601fc426af1f',
    'game/n3-mixture7:events': '2efe2775842247019ce3d838ab47731206a7d467bb1492f7ad07dcd795e48d02',
    'game/n3-own-target:certificate': 'bc6970df5b8506db0a69516f45e94f7c0b4597a0791c1b2c39b83dd876f44e2a',
    'game/n3-own-target:events': '334e1819ecea95352829a3e603b90e19f107b7b0c4e17bda4f31c1a9be2702c3',
    'game/n2-own-target:certificate': '6c34b8fb40839f4d2ec6cec739decae5de1cbb97b85c1199c331d0b9e1289f2a',
    'game/n2-own-target:events': 'ec2cf19b73f7db52772245f0c1b869bcb340077972fe90073d00ad3f5f353602',
    'game/n3-exhausted:certificate': 'd4c90474280a0afa497918d291c71a29ee18870890a802630212ff40885bce1c',
    'game/n3-exhausted:events': '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    'game/two-agent:certificate': '6dca2bc985eb4f3ddbb8ad7d8a8cb5ce2b5a1312de6a7bf39ade9e7f3745e2db',
    'game/two-agent-eps10:certificate': 'a2238e9674bebfb77d09d802907e8e83244f288668293ed5e83f865f76a4f948',
    'game/two-agent-eps20:certificate': 'd85ca0a53b00b348510431a0c68f31d2fe125d2770a1f2deb99877a4bbcd5dd1',
}


def _certify_with(inst, alloc, witnesses):
    """:func:`certify_ratio`, with ``witnesses`` (if not None) offered to
    every agent's :func:`agent_mms` record."""
    if witnesses is None:
        return certify_ratio(inst, alloc)
    report = [agent_mms(inst, agent, witnesses) for agent in range(1, inst.n + 1)]
    return [
        _build_certificate(r.agent, d_a, r.upper, r.witness, r.source)
        for r, d_a in zip(report, scaled_disutilities(inst, alloc, report))
    ]


@functools.lru_cache(maxsize=None)
def _artifacts(case: str) -> dict[str, str]:
    inst = CORPUS[case]()
    out = {}
    for policy in (PressureGreedyPolicy(), BiValuePolicy()):
        _, trace = run_online(inst, policy)
        out[f"trace/{policy.name}"] = trace.to_jsonl()
        if policy.name == "pressure-greedy" and inst.n >= 2:
            out["stacking"] = stacking_trace_to_jsonl(allocator_to_stacking(trace))
    out["report"] = run_experiment(inst).to_json()
    for name in (c for c in CERTIFIED if c.split("+")[0] == case):
        alloc, _ = run_online(inst, PressureGreedyPolicy())
        certs = _certify_with(inst, alloc, CERTIFIED[name])
        out["certificates" + name[len(case):]] = json.dumps([c.to_obj() for c in certs], sort_keys=True)
    for policy in CLI_RUNS.get(case, ()):
        out.update({f"cli/{policy}/{f}": text for f, text in _cli_run(inst, policy).items()})
    if inst.m <= exact_search_limit(inst.n):
        out["mms"] = _cli_mms(inst)
    return out


@functools.lru_cache(maxsize=None)
def _stream_artifacts(name: str) -> dict[str, str]:
    make, policy = STREAM_RUNS[name]
    return {f"cli/{policy}/{f}": text for f, text in _cli_run(make(), policy).items()}


@functools.lru_cache(maxsize=None)
def _game_artifacts(name: str) -> dict[str, str]:
    adversary, policy, budget = GAMES[name]()
    result = play_game(adversary, policy, budget)
    out = {"certificate": json.dumps(result.certificate.to_obj(), sort_keys=True)}
    if result.record is not None:
        events = [(e.level, e.kind, e.agent, e.round_local, e.strict) for e in result.record.events]
        out["events"] = json.dumps(events)
    return out


def _cli_mms(inst) -> str:
    """The report ``fairdiv mms`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "instance"), os.path.join(tmp, "mms.json")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(instance_to_json(inst) + "\n")
        main(["mms", "--in", src, "--out", dst])
        with open(dst, encoding="utf-8") as fh:
            return fh.read()


def _cli_run(inst, policy: str) -> dict[str, str]:
    """The files ``fairdiv run`` writes for one policy, JSON report and CSV report;
    ``inst`` is an instance or the text of an instance file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = {f: os.path.join(tmp, f) for f in ("instance", "allocation", "trace", "report.json", "report.csv")}
        with open(path["instance"], "w", encoding="utf-8") as fh:
            fh.write(inst if isinstance(inst, str) else instance_to_json(inst) + "\n")
        common = ["run", "--in", path["instance"], "--policy", policy]
        main(common + ["--out", path["allocation"], "--trace", path["trace"], "--report", path["report.json"]])
        main(common + ["--report", path["report.csv"], "--format", "csv"])
        out = {}
        for f in ("allocation", "trace", "report.json", "report.csv"):
            with open(path[f], encoding="utf-8") as fh:
                out[f] = fh.read()
        return out


def _digest(key: str) -> str:
    case, artifact = key.split(":", 1)
    if case.startswith("game/"):
        text = _game_artifacts(case[len("game/"):])[artifact]
    elif case.startswith("stream/"):
        text = _stream_artifacts(case[len("stream/"):])[artifact]
    else:
        text = _artifacts(case)[artifact]
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _all_keys() -> list[str]:
    keys = [f"{case}:{artifact}" for case in CORPUS for artifact in _artifacts(case)]
    keys += [f"stream/{name}:{artifact}" for name in STREAM_RUNS for artifact in _stream_artifacts(name)]
    return keys + [f"game/{name}:{artifact}" for name in GAMES for artifact in _game_artifacts(name)]


def test_corpus_is_fully_recorded():
    assert sorted(GOLDEN) == sorted(_all_keys())


def test_noncanonical_file_runs_like_its_canonical_twin():
    twin = load_instance(NONCANONICAL)
    assert instance_to_json(twin) != NONCANONICAL
    for policy in CLI_RUNS["n3-noncanonical"]:
        assert _cli_run(NONCANONICAL, policy) == _cli_run(twin, policy)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_digest(key):
    assert _digest(key) == GOLDEN[key]


def test_stacking_traces_replay_to_the_final_grid():
    # each corpus reduction's stacking trace re-verifies, and its last
    # recorded pieces are the reduction's final grid
    replayed = 0
    for make in CORPUS.values():
        inst = make()
        if inst.n < 2:
            continue
        res = allocator_to_stacking(run_online(inst, PressureGreedyPolicy())[1])
        text = stacking_trace_to_jsonl(res)
        report = replay_stacking_trace(text)
        assert report.passed and report.steps == len(res.steps) == inst.m
        last = json.loads(text.splitlines()[-1])["pieces_after"]
        assert [tuple(map(parse_rational, piece)) for piece in last] == list(res.game.to_function().pieces)
        replayed += 1
    assert replayed == len(CORPUS) - 1


if __name__ == "__main__":
    for key in _all_keys():
        print(f"    {key!r}: {_digest(key)!r},")
