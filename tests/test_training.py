"""Training runs are pure functions of their config.

The report digests below were recorded before the scheme logic in ``qat``
was folded into one table; any change to the numerics of a scheme, the
optimizer, the tasks or the diagnostics shows up here as a changed digest.
Each run is 30 steps on tiny widths: per-group 5 splits 13 and 16 columns
into uneven groups, and snapshots every 10 steps cover the diagnostics.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from tqla.errors import CacheError, InvalidParam, UnsupportedScheme
from tqla.qat import SCHEMES
from tqla.quantizer import Granularity
from tqla.training import TASKS, QuantMlp, TrainConfig, train_toy

GRANULARITIES = {
    "per-group-5": Granularity("per-group", 5),
    "per-channel": Granularity("per-channel"),
    "per-tensor": Granularity("per-tensor"),
}

#: SHA-256 of ``json.dumps(report.to_dict(), sort_keys=True)`` per (task, granularity, scheme).
DIGESTS = {
    ("synthetic-regression", "per-group-5", "absmean"): "9b0895c8d00219965edd03d44a3dbe853148b67810899ed86fce8784dfeb2998",
    ("synthetic-regression", "per-group-5", "twn"): "8eb4cb513ab0cbd65bd0306ad9d222752565d8079a9b1ce44bf7a496476d6235",
    ("synthetic-regression", "per-group-5", "lsq"): "74a34df7923a80f90d2329c09ab933bc5a33efccced4b241096ffab967c5b2b6",
    ("synthetic-regression", "per-group-5", "seq"): "bf1c6224dfa00434045eda05284131914f5901a354e6dced57bf695c475d42e7",
    ("synthetic-regression", "per-group-5", "dlt"): "d6c4c04b1865f883ce9de3e0a6f2b02535f3f03f0280cd062022db1295448752",
    ("synthetic-regression", "per-group-5", "minima"): "4cd993e0f3894772fca85b61a8925fa5c668710854cd63d1b69ee3778221db26",
    ("synthetic-regression", "per-group-5", "tequila"): "e501ab35ec323cdc6128d42d7be3e003c3a818761b2e1c8ce7c992934b9e6898",
    ("synthetic-regression", "per-group-5", "tequila-nomix"): "13ba942c1d2116963444c66b7a25ae903cd81af82dce37ab0bf8826cd950cb75",
    ("synthetic-regression", "per-channel", "absmean"): "0caa8e42f46288e85008c3c1c66fc8f6e4087fd1e8e28bba3320d19627323c4e",
    ("synthetic-regression", "per-channel", "twn"): "ad1f67800d9f6f540b25fd175dc96eac612e00e486cff6bcd4e1c0be8ef1d633",
    ("synthetic-regression", "per-channel", "lsq"): "45d9ec9f94093aa9e82e475eb8099b6371b14abdb06383f53cc517dce4f256a1",
    ("synthetic-regression", "per-channel", "seq"): "4e52a4d0201c1925c3cc60b7e8db62869bbcb88c46729af7e25292dd5a3018b5",
    ("synthetic-regression", "per-channel", "dlt"): "58f4c436d7f0b11f038bb48851899087fcf0a5be49d444323a7f749758df2e84",
    ("synthetic-regression", "per-channel", "minima"): "0c418136d12a81679acbbd60da81cc14476164eb12688ccce409ef3081fbd512",
    ("synthetic-regression", "per-channel", "tequila"): "adab27b84a0eeb6b465bd26eb3cf627803228e47c11362ffc65a3c9117147acc",
    ("synthetic-regression", "per-channel", "tequila-nomix"): "c8e8b6e79aace9569326cbfbd99c5f6f862d1f14cf939fdae038dda13cf144de",
    ("synthetic-regression", "per-tensor", "absmean"): "5f935512049bdf5e8f4e857b56e039f8453d2f8ceabcdddd6178aec7986b1748",
    ("synthetic-regression", "per-tensor", "twn"): "cdbfee76d385f51c0c7f58a3e9c4300d9674192e7fa63199ef02479ca642b7bf",
    ("synthetic-regression", "per-tensor", "lsq"): "a738bb2d2410954a45e5a2b42fdb467424384737f9019c0b4d031563411ab823",
    ("synthetic-regression", "per-tensor", "seq"): "c9feb64532c3d017b5f09aa4ce9b8f0009aa135c731eca5fbafb1d032918fd9f",
    ("synthetic-regression", "per-tensor", "dlt"): "bf8966d4409105b4a97b4aec7462eae08b40146a5b1dca5eec0ce80322d94e52",
    ("synthetic-regression", "per-tensor", "minima"): "abfd1a56fd8d66ea01921e2d0276ce84375b8ad3a9efbc6826cdce542bcc379b",
    ("synthetic-regression", "per-tensor", "tequila"): "81bcd2c7a7d44d472caa91bfd388225b403ac4938dd851c4d170d73cfd1d61d7",
    ("synthetic-regression", "per-tensor", "tequila-nomix"): "085758ee479480ef11ce3f0b9b0b1f32b9932e7cf3fea72467944ccd0c3c1fbf",
    ("char-lm", "per-group-5", "absmean"): "e96d80c8c9f918e49cdb19569b5778680073fbfe207618ec4daa5c8fe24b6019",
    ("char-lm", "per-group-5", "twn"): "8000b882ed03ac3e8440d0291539ca4cde25e75709de10327a3a00118fac4a4b",
    ("char-lm", "per-group-5", "lsq"): "9a4a307cbf123949e79a1d964c0a1d4568dd4e54ac27b8df9ba400ddcd84c98a",
    ("char-lm", "per-group-5", "seq"): "e037941a36b8f68073ab3e0cf34b81879e27ff4d68da1ba258cda9d108ebb9d1",
    ("char-lm", "per-group-5", "dlt"): "5ef220fc8380a4e2232ec6711c6b6821a842e6add5c571719e7f6abfca30c7b8",
    ("char-lm", "per-group-5", "minima"): "bff3d832ca5a65d1a70d92216708b10321b251cf645012c445ef31aa99ad0630",
    ("char-lm", "per-group-5", "tequila"): "d08f230be58c532c9be24f3a5a365cbeeff0f21d7b2130e883dc344594e60bae",
    ("char-lm", "per-group-5", "tequila-nomix"): "b7c1ffe22e5dab58c1b2c93465bec32dee5b9c3bb164ac8246fd9f264b06df9f",
    ("char-lm", "per-channel", "absmean"): "995f5ead2d8f064d8197bf6f94748361af4aec284c23207510ccaacc6488c585",
    ("char-lm", "per-channel", "twn"): "9181585e34a7a7479dc8ea88d522d8b76ed277a1219c9d4d94110c4d11d9c960",
    ("char-lm", "per-channel", "lsq"): "0af50bd804e20c2999aba6f2ad61eab35d8c49b130a087573cb7f2003c4a24ba",
    ("char-lm", "per-channel", "seq"): "3c44d6951d41e11e143c60866f832927c8744fe2f08f7715516e44c92682f4ac",
    ("char-lm", "per-channel", "dlt"): "11ae1c04b68d09cf1d45d0ab6dcedb193a529b0174d008e88fa43dbc80f7305c",
    ("char-lm", "per-channel", "minima"): "61c61bf4cc9cd10cadc7fba5338940d6943a5d02441b4700dcab5394505e12da",
    ("char-lm", "per-channel", "tequila"): "251cb19c9fac16b64522925236eb9ad21186a57e59e655a86a75c43244bb1102",
    ("char-lm", "per-channel", "tequila-nomix"): "64bbfe09b247e725397750554ee8a0e7e4529edc2df4da6ba4a3d35bfd8eaaed",
    ("char-lm", "per-tensor", "absmean"): "4b134ce7b03f984079648b9c55a531ecb1d27f601864ecc00b8f302f1b45c28a",
    ("char-lm", "per-tensor", "twn"): "ff5ae41842bc9e4d75917123fd4a339c1c10cc0f9e2e65a4f458ad67773aa7e4",
    ("char-lm", "per-tensor", "lsq"): "5c8a3cb51df8ddc65cef19f1e624ac9d3d8682055695112157cfd6a9cf0e0395",
    ("char-lm", "per-tensor", "seq"): "79b9f5d6a6d1c184230ec0f1de70925364439d427da56b3af7d619bc68fdc139",
    ("char-lm", "per-tensor", "dlt"): "982f563c3a50630dfaead0ca5d266ae898761e225c94abe8e5c8fe59c3924c03",
    ("char-lm", "per-tensor", "minima"): "9371ae388b4fc225f002b6b4c3962fed5d4194241b3c15707bc95c1b57bd0336",
    ("char-lm", "per-tensor", "tequila"): "d810b50fc35514e0078b72b703574134c90a6b9c222925b2c660cdcb3f0f25ec",
    ("char-lm", "per-tensor", "tequila-nomix"): "4370068dbef5cbb80efee0528854945c849f57dd4efeadf81d56b8f331def429",
}


def tiny_config(task, granularity, scheme):
    return TrainConfig(
        scheme=scheme,
        granularity=GRANULARITIES[granularity],
        task=task,
        steps=30,
        batch_size=8,
        widths=(13, 16, 8),
        snapshot_every=10,
    )


def report_digest(report):
    blob = json.dumps(report.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def test_every_combination_is_pinned():
    assert set(DIGESTS) == set(itertools.product(TASKS, GRANULARITIES, SCHEMES))


@pytest.mark.parametrize("task,granularity,scheme", list(DIGESTS))
def test_report_digest_unchanged(task, granularity, scheme):
    report = train_toy(tiny_config(task, granularity, scheme))
    assert not report.diverged
    assert report_digest(report) == DIGESTS[task, granularity, scheme]


def test_config_dict_roundtrip():
    cfg = tiny_config("char-lm", "per-group-5", "tequila")
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def test_from_dict_rejects_unknown_keys():
    d = tiny_config("synthetic-regression", "per-tensor", "absmean").to_dict()
    d["momentum"] = 0.9
    with pytest.raises(InvalidParam, match="momentum"):
        TrainConfig.from_dict(d)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_overflowing_updates_diverge(scheme):
    config = TrainConfig(
        scheme=scheme, learning_rate=1e150, widths=(16,) * 4, batch_size=8, steps=20
    )
    with np.errstate(all="ignore"):
        report = train_toy(config)
    assert report.diverged
    assert 0 < report.divergence_step < config.steps
    assert len(report.losses) == report.divergence_step + 1


@pytest.mark.parametrize("learning_rate", [float("nan"), float("inf"), -1.0, 0.0])
def test_from_dict_rejects_bad_learning_rate(learning_rate):
    d = tiny_config("synthetic-regression", "per-tensor", "absmean").to_dict()
    d["learning_rate"] = learning_rate
    with pytest.raises(InvalidParam, match="learning_rate"):
        TrainConfig.from_dict(d)


@pytest.mark.parametrize(
    "key,value",
    [
        ("boundary_band", 0.0),
        ("boundary_band", 1.0),
        ("boundary_band", 2.0),
        ("boundary_band", float("nan")),
        ("histogram_bins", 1),
        ("history_window", 1),
    ],
)
def test_bad_diagnostics_settings_rejected_at_construction(key, value):
    with pytest.raises(InvalidParam, match=key):
        TrainConfig(**{key: value})
    d = tiny_config("synthetic-regression", "per-tensor", "absmean").to_dict()
    d[key] = value
    with pytest.raises(InvalidParam, match=key):
        TrainConfig.from_dict(d)


def test_granularity_must_be_a_granularity():
    with pytest.raises(InvalidParam, match="granularity"):
        TrainConfig(granularity="per-group")


@pytest.mark.parametrize("value", ["per-group", None, {"group_size": 4}])
def test_malformed_granularity_dict_rejected(value):
    with pytest.raises(InvalidParam, match="granularity"):
        Granularity.from_dict(value)
    d = tiny_config("synthetic-regression", "per-tensor", "absmean").to_dict()
    d["granularity"] = value
    with pytest.raises(InvalidParam, match="granularity"):
        TrainConfig.from_dict(d)


def test_unknown_scheme_rejected():
    with pytest.raises(UnsupportedScheme, match="unknown scheme 'binary'"):
        TrainConfig(scheme="binary")
    d = tiny_config("synthetic-regression", "per-tensor", "absmean").to_dict()
    d["scheme"] = "binary"
    with pytest.raises(UnsupportedScheme, match="unknown scheme 'binary'"):
        TrainConfig.from_dict(d)


def test_mlp_backward_needs_a_recorded_forward():
    rng = np.random.default_rng(7)
    weights = [rng.standard_normal((4, 3)), rng.standard_normal((2, 4))]
    mlp = QuantMlp.create(weights, "tequila", Granularity("per-tensor"), lam=0.1, epsilon=0.0)
    g = np.ones((5, 2))
    with pytest.raises(CacheError):
        mlp.backward(g)
    mlp.forward(rng.standard_normal((5, 3)))
    assert set(mlp.backward(g)) == {"layer0.w", "layer1.w"}
    with pytest.raises(CacheError):
        mlp.backward(g)


#: Config dict key of each ``TrainConfig`` attribute whose name differs.
DICT_KEY = {"lam": "lambda"}


@pytest.mark.parametrize(
    "attr,value",
    [
        ("steps", 2.5),
        ("steps", 2.7),
        ("steps", True),
        ("batch_size", 2.5),
        ("snapshot_every", 1.5),
        ("history_window", 2.5),
        ("histogram_bins", 4.5),
        ("seed", 1.5),
        ("seed", -1),
        ("seed", False),
        ("widths", (4, 4.5)),
        ("widths", (4, True)),
        ("lam", float("nan")),
        ("lam", float("inf")),
        ("lam", True),
        ("lam", "0.001"),
        ("epsilon", -1.0),
        ("epsilon", float("nan")),
        ("epsilon", np.bool_(True)),
        ("learning_rate", None),
        ("boundary_band", "0.1"),
    ],
)
def test_bad_counts_and_strengths_rejected_at_construction(attr, value):
    with pytest.raises(InvalidParam, match=DICT_KEY.get(attr, attr)):
        TrainConfig(**{attr: value})
    d = tiny_config("synthetic-regression", "per-tensor", "absmean").to_dict()
    d[DICT_KEY.get(attr, attr)] = list(value) if attr == "widths" else value
    with pytest.raises(InvalidParam, match=DICT_KEY.get(attr, attr)):
        TrainConfig.from_dict(d)


def test_numpy_integer_counts_become_int():
    plain = TrainConfig(steps=2, batch_size=4, widths=(4, 4, 4), seed=1, histogram_bins=8)
    config = TrainConfig(
        steps=np.int64(2),
        batch_size=np.int32(4),
        widths=[np.int64(4), 4, np.uint8(4)],
        seed=np.int64(1),
        histogram_bins=np.int16(8),
    )
    assert config == plain
    assert all(type(w) is int for w in config.widths)
    assert all(type(getattr(config, attr)) is int for attr in ("steps", "batch_size", "seed"))
    assert report_digest(train_toy(config)) == report_digest(train_toy(plain))


REALS = ("lam", "epsilon", "learning_rate", "boundary_band")


def test_numpy_reals_become_float():
    # values exact in float32, so both configs train on the same numbers
    values = {"lam": 0.5, "epsilon": 0.25, "learning_rate": 0.125, "boundary_band": 0.375}
    plain = TrainConfig(scheme="tequila", steps=2, batch_size=4, widths=(4, 4, 4), **values)
    config = TrainConfig(
        scheme="tequila",
        steps=2,
        batch_size=4,
        widths=(4, 4, 4),
        **{attr: np.float32(v) for attr, v in values.items()},
    )
    assert config == plain
    assert all(type(getattr(config, attr)) is float for attr in REALS)
    report = train_toy(config)
    json.dumps(report.to_dict())
    assert report_digest(report) == report_digest(train_toy(plain))


def test_integer_lambda_reports_like_float():
    int_lam = TrainConfig(scheme="tequila", steps=2, batch_size=4, widths=(4, 4, 4), lam=0)
    float_lam = TrainConfig(scheme="tequila", steps=2, batch_size=4, widths=(4, 4, 4), lam=0.0)
    assert type(int_lam.lam) is float
    assert report_digest(train_toy(int_lam)) == report_digest(train_toy(float_lam))


@pytest.mark.parametrize(
    "steps,snapshot_every,snapshot_steps",
    [(0, 3, [0]), (6, 3, [0, 3, 6]), (7, 3, [0, 3, 6, 7])],
)
def test_last_pass_evaluates_and_snapshots_once(steps, snapshot_every, snapshot_steps):
    config = TrainConfig(
        steps=steps, snapshot_every=snapshot_every, widths=(16,) * 4, batch_size=8
    )
    report = train_toy(config)
    assert not report.diverged
    assert len(report.losses) == steps + 1
    assert [s.step for s in report.snapshots] == snapshot_steps
    assert report.snapshots[-1].loss == report.final_loss


def test_divergence_on_the_last_pass():
    # the one update overflows the weights, so only the evaluation pass sees it
    config = TrainConfig(learning_rate=1e160, steps=1, widths=(16,) * 4, batch_size=8)
    with np.errstate(all="ignore"):
        report = train_toy(config)
    assert report.diverged
    assert report.divergence_step == config.steps
    assert report.losses == [0.10001939485011996, float("inf")]
    assert [s.step for s in report.snapshots] == [0]
