import struct
import tracemalloc

import numpy as np
import pytest

from extrack.field import (
    GridDomain,
    ScalarFieldSeries,
    SeriesFormatError,
    load_labels,
    load_series,
    minimum_image_distance,
    save_labels,
    save_series,
    stack_series,
)
from helpers import (brute_ball, brute_minimum_image, brute_neighbors, neighborhood,
                     peak_over_field, random_series)


def ring(d, v):
    """v's 1-ring: the combinatorial stencil of radius 1, less v."""
    return [u for u in neighborhood(d, v, "combinatorial", 1).tolist() if u != v]


class TestGridDomain:
    def test_defaults(self):
        d = GridDomain((4, 5))
        assert d.rank == 2
        assert d.vertex_count == 20
        assert d.spacing == (1.0, 1.0)
        assert d.periodic == (False, False)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GridDomain((5,))
        with pytest.raises(ValueError):
            GridDomain((2, 2, 2, 2))
        with pytest.raises(ValueError):
            GridDomain((1, 5))
        with pytest.raises(ValueError):
            GridDomain((4, 4), spacing=(0.0, 1.0))
        with pytest.raises(ValueError):
            GridDomain((4, 4), spacing=(1.0,))

    def test_linearization_is_c_order(self):
        d = GridDomain((3, 4))
        # last axis fastest
        assert d.vertex_at((0, 0)) == 0
        assert d.vertex_at((0, 3)) == 3
        assert d.vertex_at((1, 0)) == 4
        assert d.coords_of(7) == (1, 3)

    def test_position_uses_spacing(self):
        d = GridDomain((3, 4), spacing=(2.0, 0.5))
        assert d.position(d.vertex_at((2, 3))) == (4.0, 1.5)
        pos = d.positions(np.arange(d.vertex_count))
        assert pos.shape == (12, 2)
        assert tuple(pos[7]) == d.position(7)


class TestNeighbors:
    def test_2d_interior_has_six(self):
        d = GridDomain((4, 4))
        assert ring(d, 5) == [0, 1, 4, 6, 9, 10]

    def test_3d_interior_has_fourteen(self):
        d = GridDomain((3, 3, 3))
        center = d.vertex_at((1, 1, 1))
        assert len(ring(d, center)) == 14

    def test_matches_offset_definition_everywhere(self):
        cases = [
            GridDomain((4, 5)),
            GridDomain((4, 5), periodic=(True, False)),
            GridDomain((3, 4, 5)),
            GridDomain((3, 4, 5), periodic=(False, True, True)),
            # on a periodic axis of length 2 the +1 and -1 steps meet
            GridDomain((2, 3), periodic=(True, True)),
            GridDomain((2, 2, 2), periodic=(True, True, True)),
            GridDomain((2, 5, 2), periodic=(True, False, False)),
        ]
        for d in cases:
            for v in range(d.vertex_count):
                assert ring(d, v) == brute_neighbors(d, v), (d, v)

    def test_symmetry(self):
        # u in N(v) iff v in N(u), including across periodic seams
        d = GridDomain((4, 4, 3), periodic=(True, False, True))
        rings = [set(ring(d, v)) for v in range(d.vertex_count)]
        for v, nbrs in enumerate(rings):
            for u in nbrs:
                assert v in rings[u]

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            ring(GridDomain((4, 4)), 16)


class TestEuclideanBall:
    def test_unit_ball_interior(self):
        d = GridDomain((5, 5))
        center = d.vertex_at((2, 2))
        ball = set(neighborhood(d, center, "euclidean", 1.0))
        assert ball == {center, center - 1, center + 1, center - 5, center + 5}

    def test_zero_radius_is_singleton(self):
        d = GridDomain((5, 5))
        assert list(neighborhood(d, 7, "euclidean", 0.0)) == [7]

    def test_periodic_ring(self):
        # wide row spacing keeps the ball on one ring; wraps across the seam
        d = GridDomain((2, 8), spacing=(10.0, 1.0), periodic=(False, True))
        assert list(neighborhood(d, 0, "euclidean", 1.0)) == [0, 1, 7]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        cases = [
            GridDomain((6, 7), spacing=(1.0, 0.5)),
            GridDomain((6, 7), spacing=(1.0, 0.5), periodic=(True, True)),
            GridDomain((4, 5, 6), periodic=(False, True, False)),
        ]
        for d in cases:
            for _ in range(20):
                center = int(rng.integers(d.vertex_count))
                radius = float(rng.uniform(0, 4))
                got = list(neighborhood(d, center, "euclidean", radius))
                assert got == brute_ball(d, center, radius), (d, center, radius)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            neighborhood(GridDomain((4, 4)), 0, "euclidean", -1.0)


def test_minimum_image_distance():
    d = GridDomain((4, 8), spacing=(1.0, 1.0), periodic=(False, True))
    pa, pb = d.position(d.vertex_at((0, 0))), d.position(d.vertex_at((0, 7)))
    assert minimum_image_distance(d, pa, pb) == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        va, vb = rng.integers(d.vertex_count, size=2)
        pa, pb = d.position(int(va)), d.position(int(vb))
        assert minimum_image_distance(d, pa, pb) == pytest.approx(brute_minimum_image(d, pa, pb))


def test_minimum_image_distance_rows_match_one_position_bit_for_bit():
    rng = np.random.default_rng(11)
    cases = [
        GridDomain((4, 8), spacing=(0.7, 1.3), periodic=(False, True)),
        GridDomain((5, 6), spacing=(0.1, 3.0), periodic=(True, True)),
        GridDomain((3, 4, 5), spacing=(0.3, 1.0, 2.5), periodic=(True, False, True)),
    ]
    for d in cases:
        extent = np.asarray(d.dims) * np.asarray(d.spacing)
        # off-lattice positions, some beyond one period away
        pa = rng.uniform(-1.5, 1.5, (40, d.rank)) * extent
        pb = rng.uniform(-1.5, 1.5, (40, d.rank)) * extent
        rows = minimum_image_distance(d, pa, pb)
        assert isinstance(rows, np.ndarray) and rows.shape == (40,)
        for k in range(40):
            one = minimum_image_distance(d, tuple(pa[k]), tuple(pb[k]))
            assert isinstance(one, float)
            assert one == rows[k] == brute_minimum_image(d, pa[k].tolist(), pb[k].tolist())
        assert minimum_image_distance(d, pa[:0], pb[:0]).shape == (0,)


class TestSeries:
    def test_rejects_size_mismatch(self):
        d = GridDomain((3, 3))
        with pytest.raises(ValueError):
            ScalarFieldSeries(d, (np.zeros(8),))

    def test_rejects_non_finite(self):
        d = GridDomain((3, 3))
        vals = np.zeros(9)
        vals[4] = np.nan
        with pytest.raises(ValueError, match="vertex 4"):
            ScalarFieldSeries(d, (vals,))

    def test_steps_are_immutable(self):
        d = GridDomain((3, 3))
        s = ScalarFieldSeries(d, (np.zeros(9),))
        with pytest.raises(ValueError):
            s.steps[0][0] = 1.0

    def test_only_an_array_no_one_can_write_is_kept_uncopied(self):
        d = GridDomain((3, 3))
        owner = np.zeros(9)
        view = owner.view()
        view.flags.writeable = False
        frozen = np.frombuffer(np.arange(9.0).tobytes())
        s = ScalarFieldSeries(d, (owner, view, frozen))
        owner[4] = 7.0
        assert not s.steps[0].any() and not s.steps[1].any()
        assert np.shares_memory(s.steps[2], frozen)


class TestRawFormat:
    def test_round_trip_f64_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        s = random_series(rng, (5, 6), 3, periodic=(True, False))
        p = tmp_path / "s.xtrk"
        save_series(s, p)
        back = load_series(p, "raw-f64")
        assert back.domain == s.domain
        assert back.n_steps == 3
        for a, b in zip(s.steps, back.steps):
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a, b)

    def test_round_trip_f32_keeps_dtype(self, tmp_path):
        d = GridDomain((4, 4), spacing=(0.5, 2.0))
        vals = np.linspace(-1, 1, 16, dtype=np.float32)
        s = ScalarFieldSeries(d, (vals,))
        p = tmp_path / "s.xtrk"
        save_series(s, p)
        back = load_series(p, "raw-f32")
        assert back.steps[0].dtype == np.float32
        assert np.array_equal(back.steps[0], vals)
        assert back.domain.spacing == (0.5, 2.0)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.xtrk"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(SeriesFormatError) as ei:
            load_series(p, "raw-f64")
        assert ei.value.offset == 0

    def test_truncated_payload_reports_offset(self, tmp_path):
        rng = np.random.default_rng(1)
        s = random_series(rng, (4, 4), 2)
        p = tmp_path / "s.xtrk"
        save_series(s, p)
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(SeriesFormatError, match="payload") as ei:
            load_series(p, "raw-f64")
        assert ei.value.offset is not None

    def test_dtype_mismatch(self, tmp_path):
        rng = np.random.default_rng(1)
        s = random_series(rng, (4, 4), 1)
        p = tmp_path / "s.xtrk"
        save_series(s, p)
        with pytest.raises(SeriesFormatError, match="dtype"):
            load_series(p, "raw-f32")

    @pytest.mark.parametrize("fmt, code", [("raw-f64", "<d"), ("raw-f32", "<f")])
    def test_non_finite_payload_located(self, tmp_path, fmt, code):
        d = GridDomain((4, 4))
        size = struct.calcsize(code)
        s = ScalarFieldSeries(d, (np.zeros(16, f"<f{size}"),) * 3)
        p = tmp_path / "s.xtrk"
        save_series(s, p)
        data = bytearray(p.read_bytes())
        header = len(data) - 3 * 16 * size
        # poison step 1, vertex 3, and step 2, vertex 0: the first is named
        struct.pack_into(code, data, header + (16 + 3) * size, float("inf"))
        struct.pack_into(code, data, header + 32 * size, float("nan"))
        p.write_bytes(bytes(data))
        with pytest.raises(SeriesFormatError, match="step 1, vertex 3$") as ei:
            load_series(p, fmt)
        assert ei.value.offset == header + (16 + 3) * size

    @pytest.mark.parametrize("dtype, fmt", [(np.float64, "raw-f64"), (np.float32, "raw-f32")])
    def test_load_holds_the_series_once(self, tmp_path, dtype, fmt):
        # each step is read into its own buffer, checked in place and kept
        # uncopied by the series, so the load holds each value once
        rng = np.random.default_rng(4)
        s = random_series(rng, (24, 20, 16), 4)
        s = ScalarFieldSeries(s.domain, tuple(x.astype(dtype) for x in s.steps))
        p = tmp_path / "s.xtrk"
        save_series(s, p)
        assert peak_over_field(lambda: load_series(p, fmt), np.concatenate(s.steps)) <= 1.1

    def test_oversized_payload_is_refused_unread(self, tmp_path):
        rng = np.random.default_rng(1)
        p = tmp_path / "s.xtrk"
        save_series(random_series(rng, (4, 4), 2), p)
        with open(p, "ab") as fh:
            fh.write(bytes(1 << 22))
        tracemalloc.start()
        try:
            with pytest.raises(SeriesFormatError, match="payload holds 4194560 bytes") as ei:
                load_series(p, "raw-f64")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ei.value.offset == 44
        assert peak < 1 << 16

    def test_bad_rank_in_header(self, tmp_path):
        p = tmp_path / "bad.xtrk"
        p.write_bytes(b"XTRK" + struct.pack("<II", 1, 7) + b"\x00" * 32)
        with pytest.raises(SeriesFormatError, match="rank"):
            load_series(p, "raw-f64")


class TestCsvFormat:
    def test_single_step_grid(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2,3\n4,5,6\n")
        s = load_series(p, "csv")
        assert s.domain.dims == (2, 3)
        assert list(s.steps[0]) == [1, 2, 3, 4, 5, 6]

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(SeriesFormatError, match="line 2"):
            load_series(p, "csv")

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2\nx,4\n")
        with pytest.raises(SeriesFormatError, match="line 2"):
            load_series(p, "csv")

    def test_non_finite_value_names_row_and_column(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2,3\n4,5,inf\nnan,8,9\n")
        with pytest.raises(SeriesFormatError, match="row 1, column 2$"):
            load_series(p, "csv")

    def test_stacking_steps(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("1,2\n3,4\n")
        b.write_text("5,6\n7,8\n")
        s = stack_series([load_series(a, "csv"), load_series(b, "csv")])
        assert s.n_steps == 2
        assert list(s.steps[1]) == [5, 6, 7, 8]


def test_label_dump_round_trip(tmp_path):
    d = GridDomain((3, 5), periodic=(True, False))
    labels = np.arange(15) % 4
    p = tmp_path / "labels.xtrk"
    save_labels(labels, d, p)
    back, dom = load_labels(p)
    assert dom == d
    assert np.array_equal(back, labels)
    # a label dump is not a value series
    with pytest.raises(SeriesFormatError):
        load_series(p, "raw-f64")


def test_label_dump_refuses_labels_past_int32(tmp_path):
    d = GridDomain((3, 5))
    labels = np.arange(15)
    labels[[6, 9]] = 2**31 + 5, 2**32 - 1
    p = tmp_path / "labels.xtrk"
    save_labels(labels, d, p)
    header = p.stat().st_size - 15 * 4
    with pytest.raises(SeriesFormatError, match="label 2147483653 at vertex 6 ") as ei:
        load_labels(p)
    assert ei.value.offset == header + 6 * 4


def test_label_dump_with_a_bad_domain_is_a_format_error(tmp_path):
    p = tmp_path / "labels.xtrk"
    save_labels(np.zeros(15), GridDomain((3, 5)), p)
    data = bytearray(p.read_bytes())
    struct.pack_into("<I", data, 12, 1)  # the first axis's length
    p.write_bytes(bytes(data))
    with pytest.raises(SeriesFormatError, match="invalid domain in header"):
        load_labels(p)
