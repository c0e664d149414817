"""The assembly game's per-candidate caches change speed, never results.

Each PPO step used to recompute the action mask twice, re-embed every
instruction row and re-render every line to hash the candidate.  The game now
keeps a one-slot mask cache per state, the embedder reuses rows per
``(instruction, memory rank)``, and ``SassKernel.content_digest`` hashes each
instruction's cached rendered bytes.  Hypothesis walks random legal swap
sequences and checks every visited state against a from-scratch build.

The digest keys the cubin cache, the serve store, the journal and the
per-schedule noise streams, so it is pinned outright for every registered
seed; the PPO search results are pinned too (the always-on measurement memo
must answer repeats with the timing a re-measurement would give).
"""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.triton.kernels  # noqa: F401 - registers the bundled specs
from repro.api import CacheConfig, OptimizationConfig, Session
from repro.core.env import AssemblyGame
from repro.core.masking import ActionMasker
from repro.sass import Instruction, SassKernel
from repro.sim import GPUSimulator
from repro.triton.compiler import compile_spec
from repro.triton.spec import available_kernels, get_spec

WALK_KERNELS = ("bmm", "mmLeakyReLu", "fused_ff", "rmsnorm")

#: ``content_digest`` of every registered seed schedule at test scale.
SEED_DIGESTS = {
    "bmm": "ec422b6f91c1f03a4710eb66d906ec04c9d62ee4de992e32b20cc29ebf0b477f",
    "flash-attention": "c410686a828e13e986e8c0280728c6ad17e5c1fdaa2a0c9fb1949bc2b02c599f",
    "fused_ff": "bc78581b4192a3dbdee0fb25db519cb4eba36953fd66bd8d92e551534ea9e9f6",
    "layernorm-residual": "6ba85c3aee83f44abd06a7feb1ac13aa6c3bae2c2a019d5ac663f9873b38cd1d",
    "mmLeakyReLu": "98cdc01cac23932c83ba3a752f821e142e40792c19c0446f0312855cd02cbc11",
    "rmsnorm": "42bcb7947aba0ed22c3174aa2c7a02f57a7ef804f70751613392a196df95e8ea",
    "seg-scan": "ed76c4f98730eaf6573ef136a78e3cbe05b7df7fe2445d0cd094260beb79e940",
    "softmax": "dc0887b4ffd00afdab603fb15e93d1ff106ff2eddf65eb579a3b0cea389ef1fc",
}

#: ``(best_time_ms, best-schedule digest, evaluations)`` of a seeded PPO run
#: (``_PPO_CONFIG``), recorded before the per-candidate caches existed.
PPO_RESULTS = {
    "bmm": (
        0.0035070921985815603,
        "2440c020bbe0af43631fdc76f8d8ee2151c283f4abe42228570fe8e02df6b873",
        48,
    ),
    "mmLeakyReLu": (
        0.003469503546099291,
        "5b5311105d28f1d63bb25dea9eb17e6a0ec2033eb27b8c34ca6cac27373c275a",
        48,
    ),
    "fused_ff": (
        0.0042418439716312055,
        "9733ee1abc10c1cdf48064bcde5f17270d9088575a85df1bbb790270c8e1989c",
        48,
    ),
    "rmsnorm": (
        0.0017290780141843971,
        "71a6e63cfbaf8a6a3f636130302e6fca82a22cce5fc6bec059605111080a36dd",
        48,
    ),
}

_PPO_CONFIG = OptimizationConfig(
    strategy="ppo", scale="test", episode_length=8, train_timesteps=48,
    autotune=False, verify=False, seed=3,
)

_GAMES: dict[str, AssemblyGame] = {}


def _game(kernel: str) -> AssemblyGame:
    if kernel not in _GAMES:
        compiled = compile_spec(get_spec(kernel), scale="test")
        _GAMES[kernel] = AssemblyGame(compiled, GPUSimulator(), episode_length=10_000)
    return _GAMES[kernel]


def _reference_digest(kernel: SassKernel) -> str:
    text = kernel.metadata.name + "".join("\n" + line.render() for line in kernel.lines)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reference_embedding(game: AssemblyGame, kernel: SassKernel) -> np.ndarray:
    rows = []
    rank = 0
    for line in kernel.lines:
        if not isinstance(line, Instruction):
            continue
        memory_rank = None
        if line.is_actionable_memory:
            memory_rank = rank
            rank += 1
        rows.append(game.embedder.embed_instruction(line, memory_rank))
    return np.asarray(rows, dtype=np.float64)


def _check_state(game: AssemblyGame, observation: np.ndarray) -> np.ndarray:
    kernel = game.current_kernel
    fresh_mask = ActionMasker(game.action_space_map, game.analysis.stalls).mask(kernel)
    mask = game.action_masks()
    assert np.array_equal(mask, fresh_mask)
    # The cached mask is handed out as a copy: scribbling on it is harmless.
    mask[:] = ~mask
    assert np.array_equal(game.action_masks(), fresh_mask)

    reference = _reference_embedding(game, kernel)
    assert np.array_equal(observation, reference)
    assert np.array_equal(game.embedder.embed(kernel), reference)

    expected = _reference_digest(kernel)
    assert kernel.content_digest() == expected
    # A fresh container over the same (render-cached) lines, and a pickled
    # copy whose lines carry no caches at all, hash identically.
    assert SassKernel(kernel.lines, kernel.metadata).content_digest() == expected
    assert pickle.loads(pickle.dumps(kernel)).content_digest() == expected
    return fresh_mask


@pytest.mark.parametrize("kernel", WALK_KERNELS)
@settings(max_examples=8, deadline=None)
@given(choices=st.lists(st.integers(min_value=0, max_value=1_000), max_size=12))
def test_random_legal_walk_matches_fresh_builds(kernel, choices):
    game = _game(kernel)
    observation, _ = game.reset()
    mask = _check_state(game, observation)
    for choice in choices:
        valid = np.flatnonzero(mask)
        if not len(valid):
            break
        observation, _, terminated, _, info = game.step(int(valid[choice % len(valid)]))
        assert not terminated and "invalid_action" not in info
        mask = _check_state(game, observation)
    assert game.invalid_actions == 0


@pytest.mark.parametrize("kernel", WALK_KERNELS)
@settings(max_examples=8, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1_000), st.integers(min_value=0, max_value=1_000)),
        min_size=1,
        max_size=8,
    )
)
def test_memory_reorders_embed_and_hash_like_fresh_builds(kernel, pairs):
    """Swapping memory instructions with each other (legal or not) moves
    their memory ranks, which legal single moves rarely do; each visited
    schedule must still embed and hash like a fresh build."""
    game = _game(kernel)
    current = game.initial_kernel
    for first, second in pairs:
        memory = current.memory_instruction_indices()
        current = current.swap(memory[first % len(memory)], memory[second % len(memory)])
        assert np.array_equal(game.embedder.embed(current), _reference_embedding(game, current))
        assert current.content_digest() == _reference_digest(current)


def test_seed_digests_are_pinned():
    assert set(available_kernels()) == set(SEED_DIGESTS)
    for name, digest in SEED_DIGESTS.items():
        kernel = compile_spec(get_spec(name), scale="test").kernel
        assert kernel.content_digest() == digest == _reference_digest(kernel), name


@pytest.mark.parametrize("kernel", WALK_KERNELS)
def test_seeded_ppo_results_are_pinned(kernel):
    report = Session(config=_PPO_CONFIG, cache=CacheConfig(enabled=False)).optimize(kernel)
    best = report.artifact.optimized.kernel
    assert (report.best_time_ms, best.content_digest(), report.evaluations) == PPO_RESULTS[kernel]
    stats = report.details["measurement"]
    # One request per step plus the baseline; repeats never reach the
    # simulator.
    assert stats["submitted"] == report.evaluations + 1
    assert stats["measured"] + stats["memo_hits"] == stats["submitted"]
