"""Generation distributions, benchmark parsing, and container round-trips."""

import hashlib
import json

import numpy as np
import pytest

from flowshop.errors import DataError, ValidationError
from flowshop.instances import (
    TAILLARD_20_5_TIME_SEEDS,
    DatasetSpec,
    generate,
    load_dataset,
    parse_taillard,
    parse_vrf,
    save_dataset,
    taillard_instance,
)

from conftest import FIXTURES

TAILLARD_FIXTURE_SHA = "3a5750b65f6308a5db3e4837777d7cb778ab8065b3245afa64297b5aee690179"
TAILLARD_MATRIX_SHA = "7b537f78fc4af7f4af2dbe9117274b213de6c9ec1cd1fa4ae92b17c18e2fc17f"
VRF_FIXTURE_SHA = "9475a4af1b755066036a386ec88ca76f658092c22811f108dbedf414a966e964"
VRF_MATRIX_SHA = "67bed7cdd67d6b1c4c688ddefd58de546f83a5e9765551b82c5e6da21962dc3d"

# First machine row of the first published 20x5 instance (time seed 873654221).
TA001_ROW0 = [54, 83, 15, 71, 77, 36, 53, 38, 27, 87, 76, 91, 14, 29, 12, 77, 32, 87, 68, 94]


def _matrix_sha(times: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(times, dtype="<f8").tobytes()).hexdigest()


class TestDatasetSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DatasetSpec(count=0, jobs=5, machines=2)
        with pytest.raises(ValidationError):
            DatasetSpec(count=1, jobs=5, machines=2, dist="uniform")
        with pytest.raises(ValidationError):
            DatasetSpec(count=1, jobs=5, machines=2, dist="gamma", k=0.0)
        with pytest.raises(ValidationError):
            DatasetSpec(count=1, jobs=5, machines=2, dist="normal", sigma=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("dist, field", [("gamma", "k"), ("gamma", "theta"), ("normal", "mu"), ("normal", "sigma")])
    def test_non_finite_parameter(self, dist, field, value):
        with pytest.raises(ValidationError):
            DatasetSpec(count=1, jobs=5, machines=2, dist=dist, **{field: value})

    def test_sigma_zero_allowed(self):
        DatasetSpec(count=1, jobs=5, machines=2, dist="normal", sigma=0.0)


class TestGenerate:
    def test_reproducible(self):
        spec = DatasetSpec(count=5, jobs=6, machines=3, seed=42)
        a = generate(spec)
        b = generate(spec)
        for x, y in zip(a, b):
            assert np.array_equal(x.times, y.times)

    def test_sigma_zero_identical_jobs(self):
        spec = DatasetSpec(count=2, jobs=4, machines=3, dist="normal", mu=6.0, sigma=0.0, seed=1)
        for inst in generate(spec):
            assert np.all(inst.times == 6.0)

    def test_gamma_moments_and_support(self):
        # pooled mean converges to k*theta = 2 (law of large numbers)
        spec = DatasetSpec(count=100, jobs=100, machines=100, dist="gamma", seed=3)
        pool = np.concatenate([inst.times.ravel() for inst in generate(spec)])
        assert pool.size == 10**6
        assert (pool >= 0).all()
        assert 1.98 <= pool.mean() <= 2.02

    def test_normal_clamp_mass_matches_left_tail(self):
        # P(X <= 0) for N(6, 6) is Phi(-1) ~ 0.158655; clamping moves it to 0
        spec = DatasetSpec(count=100, jobs=100, machines=100, dist="normal", seed=4)
        pool = np.concatenate([inst.times.ravel() for inst in generate(spec)])
        frac_zero = float((pool == 0.0).mean())
        assert abs(frac_zero - 0.158655) <= 0.01
        assert pool.min() == 0.0

    def test_shapes_and_names(self):
        insts = generate(DatasetSpec(count=3, jobs=7, machines=2, seed=9))
        assert all(i.m == 2 and i.n == 7 for i in insts)
        assert len({i.name for i in insts}) == 3


class TestTaillardParsing:
    def test_handcrafted_2x2(self):
        text = "2 2\n10 20\n30 40\n"
        insts = parse_taillard(text)
        assert len(insts) == 1
        assert np.array_equal(insts[0].times, [[10.0, 20.0], [30.0, 40.0]])

    def test_vendored_fixture_is_authentic(self):
        raw = (FIXTURES / "tai20_5_1.txt").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == TAILLARD_FIXTURE_SHA
        inst = parse_taillard(raw.decode())[0]
        assert inst.n == 20 and inst.m == 5
        assert inst.times.min() >= 1 and inst.times.max() <= 99
        assert _matrix_sha(inst.times) == TAILLARD_MATRIX_SHA
        assert list(inst.times[0].astype(int)) == TA001_ROW0
        assert inst.meta["time_seed"] == TAILLARD_20_5_TIME_SEEDS[0]
        # regeneration from the published portable generator agrees entrywise
        regen = taillard_instance(20, 5, TAILLARD_20_5_TIME_SEEDS[0])
        assert np.array_equal(inst.times, regen.times)

    def test_truncated_file_names_missing_row(self):
        text = "2 3\n1 2\n"  # m=3 rows expected, only one given
        with pytest.raises(DataError, match="machine row"):
            parse_taillard(text)

    def test_bad_row_width(self):
        with pytest.raises(DataError, match="entries"):
            parse_taillard("2 2\n1 2 3\n4 5\n")

    def test_multi_instance_file(self):
        text = (
            "number of jobs, number of machines, initial seed, upper bound and lower bound :\n"
            "           4           2       12345          30          21\n"
            "processing times :\n"
            " 5 1 7 3\n"
            " 2 9 4 8\n"
            "\n"
            "number of jobs, number of machines, initial seed, upper bound and lower bound :\n"
            "           4           2       99999\n"
            "processing times :\n"
            "10 20 30 40\n"
            "50 60 70 80\n"
        )
        insts = parse_taillard(text)
        assert len(insts) == 2
        assert np.array_equal(insts[0].times, [[5, 1, 7, 3], [2, 9, 4, 8]])
        assert np.array_equal(insts[1].times, [[10, 20, 30, 40], [50, 60, 70, 80]])
        assert insts[0].meta == {"time_seed": 12345, "upper_bound": 30, "lower_bound": 21}
        assert insts[1].meta == {"time_seed": 99999}


class TestVrfParsing:
    def test_handcrafted_2x2(self):
        text = "2 2\n0 10 1 20\n0 30 1 40\n"
        inst = parse_vrf(text)[0]
        # per-job rows become columns of the machine-major matrix
        assert np.array_equal(inst.times, [[10.0, 30.0], [20.0, 40.0]])

    def test_vendored_fixture(self):
        raw = (FIXTURES / "vrf10_5_1.txt").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == VRF_FIXTURE_SHA
        inst = parse_vrf(raw.decode())[0]
        assert inst.n == 10 and inst.m == 5
        assert inst.times.min() >= 1 and inst.times.max() <= 99
        assert _matrix_sha(inst.times) == VRF_MATRIX_SHA

    def test_wrong_machine_index(self):
        with pytest.raises(DataError, match="machine index"):
            parse_vrf("2 2\n0 10 2 20\n0 30 1 40\n")

    def test_missing_job_row(self):
        with pytest.raises(DataError, match="job row"):
            parse_vrf("3 2\n0 10 1 20\n")

    @pytest.mark.parametrize("index", ["1.5", "nan", "inf"])
    def test_machine_index_must_be_whole(self, index):
        with pytest.raises(DataError, match="machine index"):
            parse_vrf(f"2 2\n0 10 {index} 20\n0 30 1 40\n")

    def test_format_round_trip(self):
        # the published files' layout: tab-separated, one job per line, blank lines allowed
        text = "3\t2\n0\t5\t1\t7\n\n0\t1.5\t1\t2\n0\t9\t1\t3\n"
        inst = parse_vrf(text)[0]
        assert np.array_equal(inst.times, [[5.0, 1.5, 9.0], [7.0, 2.0, 3.0]])


@pytest.mark.parametrize("parse", [parse_taillard, parse_vrf])
@pytest.mark.parametrize("header", ["nan 2", "inf 2", "2 inf", "2.7 1", "2 1.5", "2", "0 2", "2 -1"])
def test_malformed_text_header_is_data_error(parse, header):
    # counts must be whole finite numbers >= 1; "2.7 1" once parsed as a 2x1 instance
    with pytest.raises(DataError, match="line 1"):
        parse(f"{header}\n1 2\n3 4\n")


def _drop_n(header):
    del header["instances"][0]["n"]
    return header


def _string_m(header):
    header["instances"][0]["m"] = "3"
    return header


HEADER_CORRUPTIONS = {
    "header_is_list": lambda header: [header],
    "entry_without_n": _drop_n,
    "string_m": _string_m,
}


def rewrite_dataset_header(path, corrupt):
    """Replace a dataset file's JSON header line by ``corrupt(header)``."""
    head, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(corrupt(json.loads(head))).encode() + b"\n" + body)


class TestContainer:
    def test_round_trip_bit_identical(self, tmp_path):
        spec = DatasetSpec(count=20, jobs=8, machines=4, seed=5)
        insts = generate(spec)
        path = tmp_path / "data.fsd"
        save_dataset(path, insts, spec)
        back = load_dataset(path)
        assert len(back) == 20
        for a, b in zip(insts, back):
            assert a.times.tobytes() == b.times.tobytes()
            assert a.name == b.name

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.fsd"
        save_dataset(path, [])
        assert load_dataset(path) == []

    def test_header_records_generator(self, tmp_path):
        path = tmp_path / "data.fsd"
        spec = DatasetSpec(count=1, jobs=3, machines=2, seed=0)
        save_dataset(path, generate(spec), spec)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["generator"] == "pcg64"
        assert header["spec"]["seed"] == 0

    def test_version_flip_rejected(self, tmp_path):
        path = tmp_path / "data.fsd"
        save_dataset(path, generate(DatasetSpec(count=1, jobs=3, machines=2, seed=0)))
        rewrite_dataset_header(path, lambda header: {**header, "version": 999})
        with pytest.raises(DataError, match="version"):
            load_dataset(path)

    def test_corrupt_body_rejected(self, tmp_path):
        path = tmp_path / "data.fsd"
        save_dataset(path, generate(DatasetSpec(count=2, jobs=3, machines=2, seed=0)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])  # drop one float64
        with pytest.raises(DataError, match="body"):
            load_dataset(path)

    @pytest.mark.parametrize("corrupt", HEADER_CORRUPTIONS.values(), ids=HEADER_CORRUPTIONS.keys())
    def test_malformed_header_is_data_error(self, tmp_path, corrupt):
        path = tmp_path / "data.fsd"
        save_dataset(path, generate(DatasetSpec(count=2, jobs=3, machines=2, seed=0)))
        rewrite_dataset_header(path, corrupt)
        with pytest.raises(DataError, match="header"):
            load_dataset(path)

    def test_not_a_dataset(self, tmp_path):
        path = tmp_path / "nope.fsd"
        path.write_bytes(b'{"format": "something-else", "version": 1}\n')
        with pytest.raises(DataError):
            load_dataset(path)
