import tracemalloc
import warnings

import numpy as np
import pytest

from pathrev import core
from pathrev.core import (ConsistencyError, JumpPathEnsemble, MatrixField,
                          NumericError, ParameterError, PathEnsemble, TimeGrid,
                          VectorField, _matvec_rows, _quad_rows, _sq_distances,
                          flip_ensemble, load_ensemble, make_grid, mean_stderr,
                          path_rng, path_streams, philox_uniforms, psd_sqrt,
                          save_ensemble)


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(2.0, 8)
        assert g.dt == 0.25
        assert g.nodes.shape == (9,)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 2.0
        assert g.node(3) == 0.75

    def test_last_node_is_exactly_T(self):
        # accumulated 0.1 steps would land on 0.9999999999999999
        g = TimeGrid(1.0, 10)
        assert g.nodes[-1] == 1.0

    def test_index_of_snaps_to_nearest(self):
        g = TimeGrid(1.0, 4)
        assert g.index_of(0.0) == 0
        assert g.index_of(0.26) == 1
        assert g.index_of(0.9999999999) == 4

    def test_index_of_rejects_out_of_range(self):
        g = TimeGrid(1.0, 4)
        with pytest.raises(ParameterError):
            g.index_of(1.5)
        with pytest.raises(ParameterError):
            g.index_of(-0.3)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            TimeGrid(0.0, 10)
        with pytest.raises(ParameterError):
            TimeGrid(float("inf"), 10)
        with pytest.raises(ParameterError):
            TimeGrid(1.0, 0)
        with pytest.raises(ParameterError):
            TimeGrid(1.0, 2.5)

    def test_nodes_are_frozen(self):
        g = make_grid(1.0, 4)
        with pytest.raises(ValueError):
            g.nodes[0] = 5.0


class TestPathRng:
    def test_deterministic(self):
        a = path_rng(7, 3).standard_normal(5)
        b = path_rng(7, 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_streams_differ_across_paths_and_seeds(self):
        a = path_rng(7, 3).standard_normal(5)
        assert not np.array_equal(a, path_rng(7, 4).standard_normal(5))
        assert not np.array_equal(a, path_rng(8, 3).standard_normal(5))

    def test_independent_of_call_order(self):
        # counter-based streams never share state
        first = path_rng(1, 0).standard_normal(3)
        _ = path_rng(1, 99).standard_normal(1000)
        again = path_rng(1, 0).standard_normal(3)
        assert np.array_equal(first, again)


# (seed, path index) pairs on both sides of 2**63, where the key used to go
# through float64
_KEYS = [(0, 0), (7, 3), (20260822, 19999), (2**62 + 5, 2**40), (2**63 - 1, 1),
         (2**63, 0), (2**63 + 1, 0), (2**64 - 1, 7), (3, 2**63 + 2)]


def _draws(rng):
    """One of each draw kind the package uses, plus a float32 draw that
    consumes half words of the stream."""
    return (rng.random(5).tolist(), rng.exponential(0.5, 4).tolist(),
            rng.standard_normal((3, 2)).tolist(), rng.permutation(11).tolist(),
            rng.random(3, dtype=np.float32).tolist(), rng.random())


class TestSeedDomain:
    def test_keys_below_2_63_keep_their_streams(self):
        # the stream of every key below 2**63 is Philox's own for that key
        for seed, index in _KEYS[:5]:
            legacy = np.random.Generator(np.random.Philox(key=[seed, index]))
            assert _draws(path_rng(seed, index)) == _draws(legacy)

    def test_keys_are_exact_uint64(self):
        for seed, index in _KEYS:
            key = path_rng(seed, index).bit_generator.state["state"]["key"]
            assert key.tolist() == [seed, index]

    def test_high_seeds_do_not_alias(self):
        firsts = {seed: path_rng(seed, 0).random(4).tolist()
                  for seed in (0, 2**63, 2**63 + 1, 2**64 - 1)}
        assert len({tuple(v) for v in firsts.values()}) == 4


class TestPathStreams:
    def test_matches_path_rng(self):
        for seed, index in _KEYS:
            (rng,) = path_streams(seed, [index])
            assert _draws(rng) == _draws(path_rng(seed, index))

    def test_one_generator_reused_across_indices(self):
        indices = [4, 0, 4, 9, 1]
        seen = set()
        for index, rng in zip(indices, path_streams(31, indices)):
            seen.add(id(rng))
            assert _draws(rng) == _draws(path_rng(31, index))
        assert len(seen) == 1

    def test_buffered_half_word_is_not_inherited(self):
        # one float32 draw takes half of a 64-bit word and buffers the rest;
        # the next path must start from an empty buffer
        streams = path_streams(5, [0, 1])
        rng = next(streams)
        rng.random(dtype=np.float32)
        assert rng.bit_generator.state["has_uint32"] == 1
        rng = next(streams)
        fresh = path_rng(5, 1)
        assert (rng.random(3, dtype=np.float32).tolist()
                == fresh.random(3, dtype=np.float32).tolist())
        assert rng.random() == fresh.random()


class TestPhiloxUniforms:
    """philox_uniforms computes Philox blocks for many keys at once; each
    must be path_rng's block bit for bit."""

    # index words at the edges of the 32-bit halves and of the 64-bit word
    _INDICES = np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)

    @pytest.mark.parametrize("seed", [0, 1, 20260822, 2**63 - 1, -1])
    def test_matches_path_rng(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [philox_uniforms(seed, self._INDICES, block) for block in range(1, 13)]
        for block, U in enumerate(got, start=1):
            want = np.array([path_rng(seed, int(i)).random(4 * block)[-4:]
                             for i in self._INDICES])
            assert np.array_equal(U.view(np.uint64), want.view(np.uint64))

    def test_signed_indices_are_masked(self):
        # -1 is index 2^64 - 1, as _philox_state masks it
        U = philox_uniforms(3, np.array([-1, 5]), 2)
        assert np.array_equal(U, philox_uniforms(3, np.array([2**64 - 1, 5], dtype=np.uint64), 2))

    def test_refuses_float_indices(self):
        # a list of ints past 2^63 becomes float64 and loses its low bits
        with pytest.raises(ParameterError, match="integer array"):
            philox_uniforms(0, np.asarray([0, 2**64 - 1]), 1)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_slices_meet_without_seams(self, monkeypatch, block):
        # keys are computed _PHILOX_KEYS at a time into one output; at 3 a
        # slice boundary falls after every third key
        monkeypatch.setattr(core, "_PHILOX_KEYS", 3)
        indices = np.array([0, 5, 2**63 - 1, 2**32, 1, 2**63 - 2, 7], dtype=np.int64)
        U = philox_uniforms(11, indices, block)
        want = np.array([path_rng(11, int(i)).random(4 * block)[-4:] for i in indices])
        assert np.array_equal(U.view(np.uint64), want.view(np.uint64))

    def test_memory_is_its_output_and_one_slice(self):
        # a block for 1e5 keys once held a dozen full-length uint64 arrays
        # at once: 12.8 MB traced for its 3.2 MB of output
        indices = np.arange(10**5)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            U = philox_uniforms(20260822, indices, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= U.nbytes + 2**20


def _small_ensemble(seed=5, n_paths=3, n_steps=4, dim=2):
    g = make_grid(1.0, n_steps)
    paths = path_rng(seed, 0).standard_normal((n_paths, n_steps + 1, dim))
    return PathEnsemble(g, paths, seed, "toy")


class TestPathEnsemble:
    def test_shape_properties(self):
        e = _small_ensemble()
        assert e.n_paths == 3
        assert e.dim == 2
        assert e.paths.shape == (3, 5, 2)

    def test_validation(self):
        g = make_grid(1.0, 4)
        with pytest.raises(ParameterError):
            PathEnsemble(g, np.zeros((3, 4, 2)), 0)  # wrong time axis
        with pytest.raises(ParameterError):
            PathEnsemble(g, np.zeros((3, 5)), 0)  # not 3-d
        for value in (np.nan, np.inf, -np.inf):
            bad = np.zeros((3, 5, 2))
            bad[1, 2, 0] = value
            with pytest.raises(ParameterError, match="non-finite"):
                PathEnsemble(g, bad, 0)

    def test_paths_frozen(self):
        e = _small_ensemble()
        with pytest.raises(ValueError):
            e.paths[0, 0, 0] = 1.0

    def test_flip_is_involution(self):
        e = _small_ensemble()
        f = flip_ensemble(e)
        assert np.array_equal(f.paths[:, 0, :], e.paths[:, -1, :])
        assert f.model_tag == "toy~rev"
        ff = flip_ensemble(f)
        assert np.array_equal(ff.paths, e.paths)
        assert ff.model_tag == "toy"


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        e = _small_ensemble()
        p = str(tmp_path / "e.bin")
        save_ensemble(e, p)
        back = load_ensemble(p)
        assert np.array_equal(back.paths, e.paths)
        assert back.grid.T == e.grid.T
        assert back.grid.n_steps == e.grid.n_steps
        assert back.seed == e.seed
        assert back.model_tag == e.model_tag

    def test_negative_seed_survives(self, tmp_path):
        g = make_grid(1.0, 2)
        e = PathEnsemble(g, np.zeros((1, 3, 1)), -5, "")
        p = str(tmp_path / "neg.bin")
        save_ensemble(e, p)
        assert load_ensemble(p).seed == -5

    @pytest.mark.parametrize("seed", [-(1 << 63), (1 << 63) - 1])
    def test_extreme_seeds_survive(self, tmp_path, seed):
        e = PathEnsemble(make_grid(1.0, 2), np.zeros((1, 3, 1)), seed, "")
        p = str(tmp_path / "edge.bin")
        save_ensemble(e, p)
        assert load_ensemble(p).seed == seed

    @pytest.mark.parametrize("seed", [(1 << 63) + 5, -(1 << 63) - 1])
    def test_unstorable_seed_refused(self, tmp_path, seed):
        # the header holds a signed 64-bit seed; 2^63 + 5 would read back
        # as -9223372036854775803
        e = PathEnsemble(make_grid(1.0, 2), np.zeros((1, 3, 1)), seed, "")
        p = tmp_path / "big.bin"
        with pytest.raises(ParameterError, match="seed"):
            save_ensemble(e, str(p))
        assert not p.exists()

    def test_save_makes_no_copy_of_the_paths(self, tmp_path):
        # 2000 x 401 x 1 float64 paths take 6.4 MB; writing them through a
        # bytes copy would allocate all of it again
        e = PathEnsemble(make_grid(1.0, 400), np.zeros((2000, 401, 1)), 3, "ou")
        p = str(tmp_path / "big.bin")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            save_ensemble(e, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 500_000
        assert np.array_equal(load_ensemble(p).paths, e.paths)

    @staticmethod
    def _stored(tmp_path, tag="ou") -> bytes:
        e = PathEnsemble(make_grid(1.0, 2), np.arange(6.0).reshape(2, 3, 1), 7, tag)
        p = tmp_path / "e.bin"
        save_ensemble(e, str(p))
        return p.read_bytes()

    @pytest.mark.parametrize("cut, match", [
        (lambda b: b[:20], "header cut short"),   # inside the header
        (lambda b: b[:-8], "bytes where the header describes"),  # one value short
        (lambda b: b + bytes(8), "bytes where the header describes"),  # one value long
    ])
    def test_length_follows_the_header(self, tmp_path, cut, match):
        p = tmp_path / "bad.bin"
        p.write_bytes(cut(self._stored(tmp_path)))
        with pytest.raises(ConsistencyError, match=match) as info:
            load_ensemble(str(p))
        assert str(p) in str(info.value)

    def test_undecodable_tag(self, tmp_path):
        data = self._stored(tmp_path, tag="ab")
        at = data.index(b"ab")
        p = tmp_path / "bad.bin"
        p.write_bytes(data[:at] + b"\xff\xfe" + data[at + 2:])
        with pytest.raises(ConsistencyError, match="not UTF-8") as info:
            load_ensemble(str(p))
        assert str(p) in str(info.value)

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"not an ensemble at all")
        with pytest.raises(ConsistencyError):
            load_ensemble(str(p))


def _jumps(**over):
    """Two paths on 3 states over [0, 1]: 0 -> 1 -> 2, and 2 without a jump."""
    cols = {"n_states": 3, "T": 1.0, "initial_states": [0, 2], "offsets": [0, 2, 2],
            "times": [0.3, 0.7], "dst": [1, 2], "seed": 9}
    cols.update(over)
    return JumpPathEnsemble(**cols)


class TestJumpPathEnsemble:
    def test_valid(self):
        e = _jumps()
        assert e.n_paths == 2
        assert e.events == (((0.3, 0, 1), (0.7, 1, 2)), ())

    def test_size_mismatch(self):
        with pytest.raises(ParameterError, match="disagree on n_paths"):
            _jumps(initial_states=[0])

    def test_bad_initial_state(self):
        with pytest.raises(ParameterError, match="initial state outside"):
            _jumps(initial_states=[0, 7])

    def test_columns_of_unequal_length(self):
        with pytest.raises(ParameterError, match="columns of one length"):
            _jumps(dst=[1, 2, 0])

    @pytest.mark.parametrize("offsets", [[1, 2, 2], [0, 2, 1], [0, 2, 3], [0, 3, 2]],
                             ids=["start", "end-short", "end-long", "decreasing"])
    def test_offsets_must_span_the_jumps(self, offsets):
        with pytest.raises(ParameterError, match="offsets must run from 0"):
            _jumps(offsets=offsets)

    @pytest.mark.parametrize("column, states, which", [
        ("initial_states", [0, 3], "initial"), ("dst", [-1, 2], "target")])
    def test_state_out_of_range(self, column, states, which):
        with pytest.raises(ParameterError, match=f"{which} state outside"):
            _jumps(**{column: states})

    def test_sources_follow_the_chain(self):
        # src is derived: a path's first jump leaves its initial state, each
        # later one the last jump's target; path 1 has no jump
        e = _jumps(n_states=4, initial_states=[3, 1, 0, 2], offsets=[0, 3, 3, 4, 6],
                   times=[0.1, 0.2, 0.9, 0.5, 0.3, 0.4], dst=[0, 2, 1, 3, 1, 0])
        assert e.src.tolist() == [3, 0, 2, 0, 2, 1]
        assert e.src.dtype == np.int64 and not e.src.flags.writeable
        assert e.events == (((0.1, 3, 0), (0.2, 0, 2), (0.9, 2, 1)), (), ((0.5, 0, 3),),
                            ((0.3, 2, 1), (0.4, 1, 0)))
        with pytest.raises(TypeError):
            _jumps(src=[0, 1])

    def test_jump_to_the_state_it_leaves(self):
        # path 0 starts in 1 and jumps to 1
        with pytest.raises(ParameterError, match="to the state it leaves"):
            _jumps(initial_states=[1, 2])

    def test_int_columns_kept_without_copy(self):
        cols = {"initial_states": np.array([0, 2]), "offsets": np.array([0, 2, 2]),
                "times": np.array([0.3, 0.7]), "dst": np.array([1, 2])}
        e = _jumps(**cols)
        for name, given in cols.items():
            assert np.shares_memory(getattr(e, name), given)
            assert not given.flags.writeable
        # lists, and ints of another width, are converted
        e = _jumps(dst=np.array([1, 2], dtype=np.int32))
        assert e.dst.dtype == np.int64 and not e.dst.flags.writeable
        assert e.events == _jumps().events

    @pytest.mark.parametrize("times", [[-0.1, 0.7], [0.3, 1.5], [0.3, float("nan")]])
    def test_time_outside_horizon(self, times):
        with pytest.raises(ParameterError, match=r"jump time outside \[0, 1.0\]"):
            _jumps(times=times)

    def test_time_decreasing_within_a_path(self):
        with pytest.raises(ParameterError, match="decrease within a path"):
            _jumps(times=[0.7, 0.3])

    def test_time_may_fall_between_paths(self):
        # path 0 ends at 0.5 and path 1 jumps at 0.2; ties within a path pass
        e = _jumps(initial_states=[0, 2], offsets=[0, 2, 3], times=[0.5, 0.5, 0.2],
                   dst=[1, 2, 0])
        assert e.events == (((0.5, 0, 1), (0.5, 1, 2)), ((0.2, 2, 0),))


class TestVectorField:
    def test_single_and_batch(self):
        # one point is a one-row batch; a bare (dim,) vector is refused
        f = VectorField.linear(np.array([[2.0]]), offset=[1.0])
        assert np.array_equal(f(0.0, np.array([[3.0]])), np.array([[7.0]]))
        out = f(0.0, np.array([[1.0], [2.0]]))
        assert np.array_equal(out, np.array([[3.0], [5.0]]))
        with pytest.raises(ParameterError):
            f(0.0, np.array([3.0]))

    def test_zero_and_constant(self):
        z = VectorField.zero(2)
        assert np.array_equal(z(0.0, np.ones((4, 2))), np.zeros((4, 2)))
        c = VectorField.constant([1.0, -2.0])
        assert np.array_equal(c(0.0, np.zeros((3, 2))),
                              np.tile([1.0, -2.0], (3, 1)))

    def test_dimension_check(self):
        f = VectorField.zero(2)
        with pytest.raises(ParameterError):
            f(0.0, np.zeros((3, 5)))

    def test_bad_output_shape(self):
        f = VectorField(lambda t, X: X[:, :1], 2)
        with pytest.raises(NumericError):
            f(0.0, np.zeros((3, 2)))


class TestMatrixField:
    def test_constant(self):
        a = MatrixField([[2.0, 0.0], [0.0, 3.0]])
        V = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(a.apply(V), np.array([[2.0, 6.0], [0.0, 3.0]]))
        assert np.array_equal(a.quad(V), np.array([14.0, 3.0]))
        assert np.allclose(a.solve(V), np.array([[0.5, 2 / 3], [0.0, 1 / 3]]))

    def test_identity(self):
        a = MatrixField.identity(3)
        V = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(a.apply(V), V)

    def test_solve_identity_is_exact(self):
        a = MatrixField.identity(3)
        V = path_rng(7, 0).standard_normal((50, 3))
        assert np.array_equal(a.solve(V), V)

    def test_solve_spd_constant_matches_linalg(self):
        M = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 0.7]])
        a = MatrixField(M)
        V = path_rng(7, 1).standard_normal((50, 3))
        out = a.solve(V)
        assert np.allclose(out, np.linalg.solve(M, V.T).T, rtol=1e-13, atol=1e-15)
        assert np.allclose(out @ M, V, rtol=1e-13, atol=1e-14)

    def test_solve_singular_constant(self):
        a = MatrixField([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NumericError):
            a.solve(np.ones((2, 2)))

    def test_refuses_a_nonsymmetric_matrix(self):
        # the rule Gaussian applies to cov: within atol 1e-12 of symmetric,
        # and then symmetrized exactly
        with pytest.raises(ParameterError, match="diffusion matrix must be symmetric"):
            MatrixField([[2.0, 1.0], [0.0, 2.0]])
        M = MatrixField([[2.0, 1.0 + 1e-13], [1.0, 2.0]]).constant_matrix
        assert np.array_equal(M, M.T) and not M.flags.writeable

    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            MatrixField(np.eye(3)[:2])
        with pytest.raises(ParameterError):
            MatrixField(np.ones(2))


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, -1e-310, 1e-200, -1e-200, 1e300, -1.5])


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMatvecRows:
    """_matvec_rows(M, V) is V @ M.T in every bit: value, sign of zero,
    infinities, nans and subnormals."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bitwise_matmul(self, d):
        rng = path_rng(31, d)
        with np.errstate(all="ignore"):
            for trial in range(60):
                V = rng.standard_normal((257, d)) * 10.0 ** rng.integers(-320, 300, (257, d))
                M = rng.standard_normal((d, d)) * 10.0 ** rng.integers(-200, 200, (d, d))
                if trial % 2:
                    V.flat[rng.integers(0, V.size, 60)] = rng.choice(_SPECIAL, 60)
                    M.flat[rng.integers(0, M.size, d)] = rng.choice(_SPECIAL, d)
                for MM in (M, M.T, 0.5 * (M + M.T)):
                    assert _same_bits(_matvec_rows(MM, V), V @ MM.T)

    @pytest.mark.parametrize("d", [2, 3])
    def test_row_bits_do_not_depend_on_batch(self, d):
        # one row alone would take gemv, which sums in another order
        rng = path_rng(33, d)
        M = rng.standard_normal((d, d))
        V = rng.standard_normal((300, d))
        rows = np.vstack([_matvec_rows(M, V[i:i + 1]) for i in range(V.shape[0])])
        assert _same_bits(rows, _matvec_rows(M, V))

    def test_one_by_one_specials(self):
        # every pair of special values, one at a time through the 1 x 1 path
        V = np.repeat(_SPECIAL, _SPECIAL.size)[:, None]
        with np.errstate(all="ignore"):
            for m in _SPECIAL:
                M = np.array([[m]])
                assert _same_bits(_matvec_rows(M, V), V @ M.T)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fields_use_it(self, d):
        rng = path_rng(32, d)
        B = rng.standard_normal((d, d))
        A = B @ B.T + d * np.eye(d)
        V = rng.standard_normal((100, d))
        V[:5] = -0.0
        a = MatrixField(A)
        assert _same_bits(a.apply(V), V @ a.constant_matrix.T)
        assert _same_bits(a.solve(V), V @ np.linalg.inv(a.constant_matrix).T)
        c = rng.standard_normal(d)
        assert _same_bits(VectorField.linear(B, c)(0.0, V), V @ B.T + c)
        assert _same_bits(a.quad(V), _quad_rows(a.constant_matrix, V))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_quad_row_bits_do_not_depend_on_batch(self, d):
        # einsum's quadratic form gave a 2-d row other last bits alone than
        # in a batch
        rng = path_rng(36, d)
        B = rng.standard_normal((d, d))
        a = MatrixField(B @ B.T + d * np.eye(d))
        V = rng.standard_normal((300, d)) * 3.0
        rows = np.concatenate([a.quad(V[i:i + 1]) for i in range(V.shape[0])])
        pairs = np.concatenate([a.quad(V[i:i + 2]) for i in range(0, V.shape[0], 2)])
        batch = a.quad(V)
        assert _same_bits(rows, batch)
        assert _same_bits(pairs, batch)


class TestSqDistances:
    """The square root of _sq_distances is scipy's cdist in every bit."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_bitwise_cdist(self, d):
        from scipy.spatial.distance import cdist
        rng = path_rng(36, d)
        with np.errstate(all="ignore"):
            for trial in range(10):
                X = rng.standard_normal((70, d)) * 10.0 ** rng.integers(-150, 150, (70, d))
                Y = rng.standard_normal((90, d)) * 10.0 ** rng.integers(-150, 150, (90, d))
                if trial % 2:
                    X.flat[rng.integers(0, X.size, 20)] = rng.choice(_SPECIAL, 20)
                assert _same_bits(np.sqrt(_sq_distances(X, Y.T)), cdist(X, Y))
                assert _same_bits(np.sqrt(_sq_distances(X, X.T)), cdist(X, X))

    def test_writes_into_out(self):
        rng = path_rng(37, 0)
        X, Y = rng.standard_normal((4, 2)), rng.standard_normal((6, 2))
        out = np.empty((10, 6))
        got = _sq_distances(X, Y.T, out=out[3:7])
        assert np.shares_memory(got, out) and _same_bits(out[3:7], _sq_distances(X, Y.T))


class TestPsdSqrt:
    def test_spd(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        S = psd_sqrt(A)
        assert np.allclose(S @ S.T, A)

    def test_degenerate(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        S = psd_sqrt(A)
        assert np.allclose(S @ S.T, A, atol=1e-12)

    def test_negative_raises(self):
        with pytest.raises(NumericError):
            psd_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_every_error_is_a_pathrev_error():
    # the command line catches PathrevError; each class keeps its builtin base
    for cls, base in ((core.ParameterError, ValueError), (core.SimulationError, RuntimeError),
                      (core.SupportError, RuntimeError), (core.BandwidthError, ValueError),
                      (core.ConsistencyError, RuntimeError), (core.NumericError, RuntimeError),
                      (core.DomainError, ValueError), (core.ConfigError, ValueError)):
        assert issubclass(cls, core.PathrevError) and issubclass(cls, base)
    errors = [obj for obj in vars(core).values()
              if isinstance(obj, type) and issubclass(obj, Exception)]
    assert len(errors) == 9 and all(issubclass(cls, core.PathrevError) for cls in errors)


def test_mean_stderr():
    # deviations -2, -1, 3: sample variance 14 / 2, so stderr sqrt(7 / 3)
    assert mean_stderr(np.array([1.0, 2.0, 6.0])) == pytest.approx((3.0, (7.0 / 3.0) ** 0.5),
                                                                   rel=1e-15)
    assert mean_stderr(np.array([2.5])) == (2.5, float("inf"))
    with pytest.raises(ParameterError):
        mean_stderr(np.array([]))


def _repr_csv(columns) -> str:
    """The reference writer: every row through %r for floats, %d for ints."""
    return "".join(",".join("%r" % v if isinstance(v, float) else "%d" % v for v in row) + "\n"
                   for row in zip(*(np.asarray(c).tolist() for c in columns)))


def _fixed(D: int, n: int, E: int) -> str:
    """repr's fixed notation of the n digits of D, the first at 10^E."""
    digits = str(D)
    assert len(digits) == n
    if E < 0:
        return "0." + "0" * (-E - 1) + digits
    digits = digits.ljust(E + 2, "0")
    return digits[:E + 1] + "." + digits[E + 1:]


def _families(rng: np.random.Generator, size: int) -> dict:
    """2^20 doubles for size = 2^18: the kinds of values the CSV files hold."""
    log_uniform = 10.0 ** rng.uniform(-4, 15, size)
    rounded = np.concatenate([np.round(10.0 ** rng.uniform(-4, 15, size // 16), d)
                              for d in range(1, 17)])
    return {"uniform": rng.random(size), "log-uniform": log_uniform, "rounded": rounded,
            "jump-times": np.cumsum(rng.exponential(0.01, size))}


_EDGES = np.array(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 2.0 ** 53 - 1, 2.0 ** 53 + 1,
     np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0),
     np.nextafter(1e15, 0.0), 1e15, np.nextafter(1e15, 2e15)]
    + [2.0 ** k for k in range(-60, 60)] + [10.0 ** k for k in range(-20, 23)])


class TestCsvText:
    """core._csv_text against a reference writer that formats with %r."""

    @pytest.fixture(scope="class")
    def families(self):
        return _families(np.random.default_rng(20261020), 1 << 18)

    def test_kernel_digits_are_repr_digits(self, families):
        for name, x in families.items():
            D, n, E, ok = core._shortest_digits(x)
            # the numeric path, not the repr fallback, carries these values
            assert ok.mean() > (0.7 if name == "rounded" else 0.97), name
            want = [repr(v) for v in x[ok].tolist()]
            got = [_fixed(*row) for row in zip(D[ok].tolist(), n[ok].tolist(), E[ok].tolist())]
            assert got == want, name

    def test_writer_matches_reference_on_both_signs(self, families):
        rng = np.random.default_rng(7)
        for name, x in families.items():
            x = np.where(rng.random(x.size) < 0.5, -x, x)
            got = b"".join(core._csv_text(["x"], [x])).decode("ascii")
            assert got == "x\n" + _repr_csv([x]), name

    def test_edge_values(self):
        x = np.concatenate([_EDGES, -_EDGES])
        got = b"".join(core._csv_text(["x"], [x])).decode("ascii")
        assert got == "x\n" + _repr_csv([x])

    def test_kernel_leaves_the_documented_cases_to_repr(self):
        # out of [1e-4, 1e15), not normal, a power of two or of ten (E at
        # risk), and a tie: 3e14 + 1/8 is 30000000000000012.5 at 17 digits
        x = np.array([0.0, 5e-324, 1e16, np.nan, np.inf, np.nextafter(1e-4, 0.0), 1e15,
                      0.5, 2.0 ** 40, 1e-3, 1e14, 3e14 + 0.125])
        assert not core._shortest_digits(x)[3].any()
        assert core._shortest_digits(np.array([0.3, 2.0 ** 49 - 1, 12.5]))[3].all()
        got = b"".join(core._csv_text(["x"], [x])).decode("ascii")
        assert got == "x\n" + _repr_csv([x])

    def test_integer_columns(self):
        v = np.array([0, 7, -7, 10, -10, 99999, -100000, 2 ** 62, np.iinfo(np.int64).min,
                      np.iinfo(np.int64).max])
        got = b"".join(core._csv_text(["i", "x"], [v, v * 0.5])).decode("ascii")
        assert got == "i,x\n" + _repr_csv([v, v * 0.5])

    def test_rows_span_chunks_and_columns_mix(self, monkeypatch):
        monkeypatch.setattr(core, "_CSV_CHUNK", 7)
        rng = np.random.default_rng(3)
        cols = [np.arange(30), rng.random(30), rng.integers(0, 4, 30),
                np.cumsum(rng.exponential(1.0, 30))]
        got = b"".join(core._csv_text(["a", "b", "c", "d"], cols)).decode("ascii")
        assert got == "a,b,c,d\n" + _repr_csv(cols)

    def test_two_dimensional_columns_give_rows_in_c_order(self, monkeypatch):
        monkeypatch.setattr(core, "_CSV_CHUNK", 10)
        rng = np.random.default_rng(4)
        paths = rng.standard_normal((7, 4))
        cols = [np.broadcast_to(np.arange(7)[:, None], (7, 4)),
                np.broadcast_to(np.linspace(0.0, 1.0, 4), (7, 4)), paths]
        got = b"".join(core._csv_text(["i", "t", "x"], cols)).decode("ascii")
        assert got == "i,t,x\n" + _repr_csv([c.reshape(-1) for c in cols])

    def test_header_alone_without_rows(self):
        assert b"".join(core._csv_text(["a", "b"], [])) == b"a,b\n"
        assert b"".join(core._csv_text(["a"], [np.array([], dtype=float)])) == b"a\n"
