import numpy as np
import pytest

from evogate import cli, genome, linalg, tasks
from evogate.genome import CodecConfig
from evogate.tasks import (
    OracleSlot,
    TaskSpec,
    TrainableSlot,
    compose_total,
    decision_outcome,
    deutsch_oracle,
    deutsch_task,
    population_fitness,
)

CODEC = CodecConfig(depth=15)
KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
FAMILY = {"oracle": {name: deutsch_oracle(name) for name in tasks.DEUTSCH_FUNCTIONS}}


def deutsch_with(*pairs):
    """The Deutsch circuit trained on the given (function, target) pairs."""
    return TaskSpec(2, (TrainableSlot(1), OracleSlot(), TrainableSlot(2)), KET0, pairs, FAMILY)


def random_genomes(n, seed):
    bits = np.random.default_rng(seed).integers(0, 2, size=(n, 2, 3, 15), dtype=np.uint8)
    return genome.pack(bits)


# ------------------------------------------------------------------ oracles

def test_oracle_matrices():
    assert np.array_equal(deutsch_oracle("const0"), np.eye(2))
    assert np.array_equal(deutsch_oracle("const1"), -np.eye(2))
    assert np.array_equal(deutsch_oracle("identity"), np.diag([1.0 + 0j, -1.0]))
    assert np.array_equal(deutsch_oracle("negation"), np.diag([-1.0 + 0j, 1.0]))


def test_constant_oracles_differ_by_global_phase():
    assert np.array_equal(deutsch_oracle("const1"), -deutsch_oracle("const0"))
    assert np.array_equal(deutsch_oracle("negation"), -deutsch_oracle("identity"))


def test_oracle_rejects_unknown_function():
    with pytest.raises(ValueError):
        deutsch_oracle("xor")


# ------------------------------------------------------------- deutsch task

def test_deutsch_task_structure():
    task = deutsch_task()
    assert task.dim == 2
    assert task.n_slots == 2
    assert [type(s) for s in task.slots] == [TrainableSlot, OracleSlot, TrainableSlot]
    assert np.array_equal(task.initial_state, KET0)
    labels = [label for label, _ in task.pairs]
    assert labels == ["const0", "identity"]
    assert np.array_equal(task.pairs[0][1], KET0)
    assert np.array_equal(task.pairs[1][1], KET1)


def test_deutsch_hadamard_solution_is_perfect():
    p_h = (np.pi / 2) * np.array([1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])
    fitness = population_fitness(deutsch_task(), np.stack([p_h, p_h]))
    assert abs(fitness - 1.0) <= 1e-10


def test_deutsch_identity_circuit_scores_half():
    fitness = population_fitness(deutsch_task(), np.zeros((2, 3)))
    assert fitness == 0.5


def test_representative_choice_does_not_change_fitness():
    genomes = random_genomes(50, seed=0)
    params = genome.decode(genomes, CODEC)
    reference = population_fitness(deutsch_task(), params)
    for constant in ("const0", "const1"):
        for balanced in ("identity", "negation"):
            alt = population_fitness(deutsch_with((constant, KET0), (balanced, KET1)), params)
            assert np.array_equal(alt, reference)


def test_all_functions_variant_matches_two_pair_fitness():
    genomes = random_genomes(30, seed=1)
    params = genome.decode(genomes, CODEC)
    two = population_fitness(deutsch_task(), params)
    four = population_fitness(deutsch_with(("const0", KET0), ("const1", KET0),
                                           ("identity", KET1), ("negation", KET1)), params)
    assert np.max(np.abs(four - two)) <= 1e-15


# ----------------------------------------------------------------- fitness

def test_fitness_equals_mean_of_per_branch_fidelities():
    task = deutsch_task()
    for g in random_genomes(20, seed=2):
        params = genome.decode(g, CODEC)
        f_by_branch = []
        for label, target in task.pairs:
            u = compose_total(task, params, label)
            f_by_branch.append(abs(np.vdot(target, u @ task.initial_state)) ** 2)
        fitness = float(population_fitness(task, params))
        assert abs(fitness - sum(f_by_branch) / 2.0) <= 1e-13


def test_fitness_bounds():
    params = genome.decode(random_genomes(200, seed=3), CODEC)
    f = population_fitness(deutsch_task(), params)
    assert np.all((f >= 0.0) & (f <= 1.0))


def test_population_fitness_general_path_matches_fast_path():
    # population_fitness takes the d=2 closed form; score the same circuits
    # from the eigendecomposition path instead
    task = deutsch_task()
    params = genome.decode(random_genomes(50, seed=4), CODEC)
    fast = population_fitness(task, params)
    u = linalg.unitary_from_params(params, 2)
    general = np.zeros(50)
    for label, target in task.pairs:
        out = u[:, 1] @ deutsch_oracle(label) @ u[:, 0] @ task.initial_state
        general += np.abs(out @ target.conj()) ** 2
    general /= len(task.pairs)
    assert np.max(np.abs(fast - general)) <= 1e-12


def _reference_population_fitness(task, params):
    """population_fitness as first written: every pair walks every slot."""
    params = np.asarray(params, dtype=float)
    d = task.dim
    if d == 2:
        us = linalg.su2_closed_form(params)
    else:
        us = linalg.unitary_from_params(params, d)
    batch = params.shape[:-2]
    total = np.zeros(batch, dtype=float)
    for label, target in task.pairs:
        state = np.broadcast_to(task.initial_state, batch + (d,))
        for slot in task.slots:
            if isinstance(slot, TrainableSlot):
                m = us[..., slot.index - 1, :, :]
                state = np.einsum("...ij,...j->...i", m, state)
            else:
                m = task.oracle_families[slot.family][label]
                state = np.einsum("ij,...j->...i", m, state)
        amp = np.einsum("i,...i->...", target.conj(), state)
        total += amp.real**2 + amp.imag**2
    return total / len(task.pairs)


def _random_state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _general_task(d, kinds, seed):
    """A task over general complex oracles and targets: three pairs, slots
    given as a string of T (trainable) and O (oracle)."""
    rng = np.random.default_rng(seed)
    slots, n = [], 0
    for kind in kinds:
        if kind == "T":
            n += 1
            slots.append(TrainableSlot(n))
        else:
            slots.append(OracleSlot())
    labels = ("a", "b", "c")
    oracles = {x: linalg.unitary_from_params(rng.uniform(-3, 3, d * d - 1), d) for x in labels}
    pairs = tuple((x, _random_state(rng, d)) for x in labels)
    return TaskSpec(d, tuple(slots), _random_state(rng, d), pairs,
                    {"oracle": oracles})


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kinds", ["TOTO", "OTOT", "TTOT", "TOOT", "TT"])
def test_population_fitness_matches_reference_bit_for_bit(d, kinds):
    task = _general_task(d, kinds, seed=len(kinds) + d)
    codec = CodecConfig(depth=12)
    rng = np.random.default_rng(d)
    genomes = rng.integers(0, 2, size=(400, task.n_slots, d * d - 1, 12), dtype=np.uint8)
    params = genome.decode(genome.pack(genomes), codec)
    single = np.array([population_fitness(task, p) for p in params[:11]])
    assert np.array_equal(single, _reference_population_fitness(task, params[:11]))
    for n in (1, 2, 11, 100, 400):
        got = population_fitness(task, params[:n])
        assert got.shape == (n,)
        assert np.array_equal(got, _reference_population_fitness(task, params[:n]))
        assert np.array_equal(got[:11], single[:n])
    # the batch is flattened and moved innermost: more leading axes and
    # strided or Fortran-ordered inputs must score like one row at a time
    grid = params[:21].reshape((3, 7) + params.shape[1:])
    strided = params[:60:3]
    fortran = np.asfortranarray(params[:20])
    for batch in (grid, strided, fortran):
        got = population_fitness(task, batch)
        assert got.shape == batch.shape[:-2]
        rows = batch.reshape((-1,) + batch.shape[-2:])
        one_by_one = np.array([population_fitness(task, p) for p in rows])
        assert np.array_equal(got.ravel(), one_by_one)
    assert not strided.flags.c_contiguous and not fortran.flags.c_contiguous


# ------------------------------------------------------------ compose_total

def test_trainable_unitaries_is_the_closed_form_at_d2_only():
    from test_cli import _qutrit_task

    rng = np.random.default_rng(24)
    for task in (deutsch_task(), _qutrit_task()):
        params = rng.uniform(-np.pi, np.pi, (3, 5, task.n_slots, task.n_components))
        build = (linalg.su2_closed_form(params) if task.dim == 2
                 else linalg.unitary_from_params(params, task.dim))
        assert tasks.trainable_unitaries(task, params).tobytes() == build.tobytes()
        assert tasks.trainable_unitaries(task, params[1, 2]).shape == (2, task.dim, task.dim)
        with pytest.raises(ValueError, match="params must end in shape"):
            tasks.trainable_unitaries(task, params[..., :1, :])


def test_compose_total_matches_manual_product():
    task = deutsch_task()
    g = random_genomes(1, seed=5)[0]
    params = genome.decode(g, CODEC)
    u1, u3 = linalg.su2_closed_form(params)
    for label in ("const0", "identity"):
        expected = u3 @ deutsch_oracle(label) @ u1
        assert np.max(np.abs(compose_total(task, params, label) - expected)) <= 1e-14


def test_compose_total_bytes_match_an_identity_seeded_product():
    # the total, byte for byte, is the identity multiplied from the left by
    # each slot's matrix in application order, one "ij,jk->ik" contraction each
    from test_cli import _qutrit_task
    from test_golden import GENERAL_TASK

    general = tasks.task_from_dict(GENERAL_TASK)
    qutrit = _qutrit_task()
    cases = [(deutsch_task(), tasks.DEUTSCH_FUNCTIONS),
             (general, [label for label, _ in general.pairs]),
             (qutrit, [label for label, _ in qutrit.pairs])]
    rng = np.random.default_rng(18)
    for task, labels in cases:
        for params in rng.uniform(-np.pi, np.pi, (200, task.n_slots, task.n_components)):
            us = (linalg.su2_closed_form(params) if task.dim == 2
                  else linalg.unitary_from_params(params, task.dim))
            for x in labels:
                expected = np.eye(task.dim, dtype=complex)
                for slot in task.slots:
                    m = (us[slot.index - 1] if isinstance(slot, TrainableSlot)
                         else task.oracle_families[slot.family][x])
                    expected = np.einsum("ij,jk->ik", m, expected)
                assert compose_total(task, params, x).tobytes() == expected.tobytes()


def test_compose_total_is_unitary():
    task = deutsch_task()
    for g in random_genomes(20, seed=6):
        u = compose_total(task, genome.decode(g, CODEC), "identity")
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


def test_compose_total_unresolvable_label():
    task = deutsch_task()
    with pytest.raises(KeyError):
        compose_total(task, genome.decode(random_genomes(1, seed=7)[0], CODEC), "nope")


def test_compose_total_shape_check():
    task = deutsch_task()
    with pytest.raises(ValueError):
        compose_total(task, genome.decode(np.zeros((1, 3), dtype=np.int64), CODEC), "const0")
    with pytest.raises(ValueError, match="got 1 batch axes"):  # a population, not one candidate
        compose_total(task, genome.decode(random_genomes(4, seed=7), CODEC), "const0")


def test_template_supports_repeated_oracle_slots():
    # the oracle may appear in more than one place in the chain
    slots = (TrainableSlot(1), OracleSlot(), TrainableSlot(2), OracleSlot())
    task = TaskSpec(2, slots, KET0, (("identity", KET1),), FAMILY)
    params = genome.decode(random_genomes(1, seed=11)[0], CODEC)
    u1, u2 = linalg.su2_closed_form(params)
    oracle = deutsch_oracle("identity")
    expected = oracle @ u2 @ oracle @ u1
    assert np.max(np.abs(compose_total(task, params, "identity") - expected)) <= 1e-13
    fitness = population_fitness(task, params)
    assert 0.0 <= float(fitness) <= 1.0


# -------------------------------------------------------- decision outcome

def test_decision_outcome_ideal():
    assert decision_outcome(KET0, KET1) == (1.0, 1.0, 0.0)


def test_decision_outcome_identical_outputs():
    out = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    _, _, defect = decision_outcome(out, out)
    assert abs(defect - 1.0) <= 1e-12


def test_decision_outcome_rejects_outputs_of_different_shapes():
    with pytest.raises(ValueError, match="output shapes do not match"):
        decision_outcome(KET0, np.zeros(3))


def test_decision_outcome_range():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a, b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        pc, pb, defect = decision_outcome(a, b)
        assert 0.0 <= pc <= 1.0 and 0.0 <= pb <= 1.0 and 0.0 <= defect <= 1.0 + 1e-12


def test_defect_bounded_by_error_on_converged_runs():
    # no unitary can discriminate better than the output overlap allows, so
    # the orthogonality defect of a solution never exceeds 4x its mean error;
    # it also equals the squared imbalance of the prepared state exactly
    from evogate import analysis, ga

    task = deutsch_task()
    cfg = ga.GAConfig(n_pop=40, threshold=1e-4, codec=CODEC, max_generations=200)
    records = [ga.run(cfg, task, seed) for seed in range(1, 31)]
    checked = 0
    for rec in records:
        if rec.termination_reason != "converged":
            continue
        params = genome.decode(rec.best_genome, CODEC)
        outs = [
            compose_total(task, params, label) @ task.initial_state
            for label, _ in task.pairs
        ]
        _, _, defect = decision_outcome(outs[0], outs[1])
        assert defect <= 4.0 * rec.epsilon_opt + 1e-9
        u1 = tasks.trainable_unitaries(task, params)[0]
        ps = analysis.prepared_state(u1, task.initial_state)
        imbalance = abs(ps.alpha**2 - 0.5)
        assert abs(defect - 4.0 * imbalance**2) <= 1e-9
        assert defect <= 4.0 * imbalance + 1e-9
        checked += 1
    assert checked >= 20


# --------------------------------------------------------------- validation

def test_template_validation():
    family = {"oracle": {"x": np.eye(2)}}
    with pytest.raises(ValueError, match="trainable slot"):
        TaskSpec(2, (OracleSlot(),), KET0, (("x", KET1),), family)
    with pytest.raises(ValueError, match="without gaps"):
        TaskSpec(2, (TrainableSlot(1), TrainableSlot(3)), KET0, (("x", KET1),))
    with pytest.raises(ValueError, match="dim must be"):
        TaskSpec(1, (TrainableSlot(1),), KET0, (("x", KET1),))


def test_task_validation():
    slots = (TrainableSlot(1), OracleSlot())
    family = {"oracle": {"x": np.eye(2)}}
    with pytest.raises(ValueError):  # unnormalized target
        TaskSpec(2, slots, KET0, (("x", 2.0 * KET1),), family)
    with pytest.raises(ValueError):  # non-unitary oracle
        TaskSpec(2, slots, KET0, (("x", KET1),), {"oracle": {"x": np.ones((2, 2))}})
    with pytest.raises(ValueError):  # label not resolvable
        TaskSpec(2, slots, KET0, (("y", KET1),), family)
    with pytest.raises(ValueError):  # missing family
        TaskSpec(
            2, (TrainableSlot(1), OracleSlot("other")),
            KET0, (("x", KET1),), family,
        )


# (value, accepted): a task and the one check in linalg agree on each
STATES = [(KET1, True), ((1 + 1e-11) * KET1, True), ((1 + 1e-9) * KET1, False),
          (2.0 * KET1, False), (np.array([np.nan, 0.0]), False), (np.array([1.0]), False),
          (np.eye(2), False)]
ORACLES = [(np.eye(2), True), ((1 + 1e-13) * np.eye(2), True), ((1 + 1e-11) * np.eye(2), False),
           (np.ones((2, 2)), False), (np.array([[np.nan, 0.0], [0.0, 1.0]]), False),
           (np.eye(3), False), (KET1, False)]


def _accepts(build, accepted, match):
    if accepted:
        build()
    else:
        with pytest.raises(ValueError, match=match):
            build()


@pytest.mark.parametrize("state, accepted", STATES)
def test_task_states_pass_the_linalg_state_check(state, accepted):
    slots = (TrainableSlot(1), OracleSlot())
    family = {"oracle": {"x": np.eye(2)}}
    _accepts(lambda: TaskSpec(2, slots, state, (("x", KET1),), family), accepted,
             "initial state must")
    _accepts(lambda: TaskSpec(2, slots, KET0, (("x", state),), family), accepted,
             "target for 'x' must")
    _accepts(lambda: linalg.check_state(state, 2), accepted, "state must")


@pytest.mark.parametrize("oracle, accepted", ORACLES)
def test_task_oracles_pass_the_linalg_unitary_check(oracle, accepted):
    slots = (TrainableSlot(1), OracleSlot())
    _accepts(lambda: TaskSpec(2, slots, KET0, (("x", KET1),), {"oracle": {"x": oracle}}),
             accepted, "oracle 'oracle'/'x' (must be|is not unitary)")
    _accepts(lambda: linalg.check_unitary(oracle, 2), accepted, "matrix (must be|is not unitary)")


# ------------------------------------------------------------ serialization

def test_task_json_round_trip(tmp_path):
    task = deutsch_task()
    clone = tasks.task_from_dict(tasks.task_to_dict(task))
    params = genome.decode(random_genomes(10, seed=9), CODEC)
    assert np.array_equal(population_fitness(clone, params), population_fitness(task, params))

    path = tmp_path / "deutsch.json"
    tasks.save_task(task, path)
    loaded = tasks.load_task(path)
    assert loaded.dim == 2
    assert [label for label, _ in loaded.pairs] == ["const0", "identity"]
    assert np.array_equal(
        population_fitness(loaded, params), population_fitness(task, params)
    )


def test_task_dict_rejects_unknown_order():
    data = tasks.task_to_dict(deutsch_task())
    data["slot_order"] = "leftmost-acts-first"
    with pytest.raises(ValueError):
        tasks.task_from_dict(data)


def test_builtin_task_lookup():
    assert cli.resolve_task("deutsch").name == "deutsch"
    with pytest.raises(OSError):  # any other name is read as a task file path
        cli.resolve_task("grover")
