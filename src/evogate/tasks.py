"""Training tasks: a circuit, its oracle tables, and input-target pairs.

A task fixes the genome shape of its search: one parameter vector of
``n_components = dim**2 - 1`` chromosomes for each of its ``n_slots``
trainable slots.  This module scores decoded parameters only, shape
``(..., n_slots, n_components)``; turning a genome into them is the codec's
job (:func:`evogate.genome.decode`), so nothing here reads a genome.

A task's circuit is an ordered list of slots; the first listed slot acts
first on the state, so the total operator is the product of the slot
matrices taken right to left ("rightmost-acts-first").  Trainable slot ``k``
takes the ``k``-th parameter vector; oracle slots look their matrix up in an
oracle family keyed by the classical input label of each training pair.

Stored fitness values are re-scored exactly, so every product that reaches
a score or an output file is an ``np.einsum`` contraction, and a score and
a total operator take their slot products from one walk (:func:`_walk`)
with two spellings, a trainable slot's and an oracle's.  Keep it so: numpy's
complex ``*`` ufunc and ``@`` round differently from einsum on general
complex matrices.  Keep the candidate axis last and contiguous in
those contractions, too: einsum runs its inner loop over the last axis, and
on a strided view it silently loops over the length-d state axis instead,
about 4x slower at npop 100.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .files import write_text
from .linalg import su2_closed_form, unitary_from_params

__all__ = [
    "OracleSlot",
    "TaskSpec",
    "TrainableSlot",
    "compose_total",
    "decision_outcome",
    "deutsch_oracle",
    "deutsch_task",
    "load_task",
    "population_fitness",
    "save_task",
    "task_from_dict",
    "task_to_dict",
]

UNITARY_TOL = 1e-12
SLOT_ORDER_CONVENTION = "rightmost-acts-first"

# the one-bit Boolean functions as (f(0), f(1)): two constant, two balanced
_DEUTSCH_TABLES = {"const0": (0, 0), "const1": (1, 1), "identity": (0, 1), "negation": (1, 0)}
DEUTSCH_FUNCTIONS = tuple(_DEUTSCH_TABLES)


@dataclass(frozen=True)
class TrainableSlot:
    """A slot filled from the genome; ``index`` is 1-based."""

    index: int


@dataclass(frozen=True)
class OracleSlot:
    """A slot resolved from an oracle family by the input label."""

    family: str = "oracle"


def _frozen_state(v) -> np.ndarray:
    arr = np.array(v, dtype=complex)
    arr.flags.writeable = False
    return arr


def _checked_state(v, d: int, what: str) -> np.ndarray:
    """``v`` as a frozen complex state of shape ``(d,)`` and unit norm."""
    arr = _frozen_state(v)
    if arr.shape != (d,):
        raise ValueError(f"{what} must have shape ({d},), got {arr.shape}")
    if not abs(np.linalg.norm(arr) - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError(f"{what} must be normalized")
    return arr


@dataclass(frozen=True)
class TaskSpec:
    """A circuit of ``dim``-level slots plus the data needed to score
    candidate genomes.

    ``slots`` lists the circuit's trainable and oracle slots in application
    order (first entry acts first); the trainable indices run 1..n without
    gaps.  ``pairs`` holds (input label, normalized target state) training
    entries; ``oracle_families`` maps family name -> {label -> unitary
    matrix}.  Arrays are frozen after validation, so task values can be
    shared freely.
    """

    dim: int
    slots: tuple
    initial_state: np.ndarray
    pairs: tuple
    oracle_families: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        d = self.dim
        if d < 2:
            raise ValueError(f"dim must be >= 2, got {d}")
        object.__setattr__(self, "slots", tuple(self.slots))
        indices = sorted(s.index for s in self.slots if isinstance(s, TrainableSlot))
        if not indices:
            raise ValueError("task needs at least one trainable slot")
        if indices != list(range(1, len(indices) + 1)):
            raise ValueError(f"trainable indices must be 1..n without gaps, got {indices}")

        init = _checked_state(self.initial_state, d, "initial state")
        object.__setattr__(self, "initial_state", init)
        pairs = [(str(label), _checked_state(target, d, f"target for {label!r}"))
                 for label, target in self.pairs]
        if not pairs:
            raise ValueError("task needs at least one input-target pair")
        object.__setattr__(self, "pairs", tuple(pairs))

        families = {}
        for fam, table in self.oracle_families.items():
            entries = {}
            for label, mat in table.items():
                m = _frozen_state(mat)
                if m.shape != (d, d):
                    raise ValueError(f"oracle {fam!r}/{label!r} must be {d}x{d}")
                if not np.max(np.abs(m.conj().T @ m - np.eye(d))) <= UNITARY_TOL:
                    raise ValueError(f"oracle {fam!r}/{label!r} is not unitary")
                entries[str(label)] = m
            families[str(fam)] = entries
        object.__setattr__(self, "oracle_families", families)

        for slot in self.slots:
            if isinstance(slot, OracleSlot):
                table = families.get(slot.family)
                if table is None:
                    raise ValueError(f"no oracle family named {slot.family!r}")
                for label, _ in pairs:
                    if label not in table:
                        raise ValueError(
                            f"oracle family {slot.family!r} cannot resolve label {label!r}"
                        )

    @cached_property
    def n_slots(self) -> int:
        """Number of trainable slots, counted once per task."""
        return sum(1 for s in self.slots if isinstance(s, TrainableSlot))

    @property
    def n_components(self) -> int:
        """Chromosomes per trainable slot: the ``dim**2 - 1`` rotation parameters."""
        return self.dim * self.dim - 1

    def _steps(self, labels) -> tuple:
        """One step per slot for :func:`_walk`: a 0-based trainable index, or
        the oracle matrices of ``labels`` stacked as ``(n_labels, d, d)``."""
        return tuple(
            s.index - 1 if isinstance(s, TrainableSlot)
            else _frozen_state([self.oracle_families[s.family][x] for x in labels])
            for s in self.slots
        )

    @cached_property
    def _circuit_plan(self) -> tuple:
        """``(steps, targets)`` of the pairs: the targets conjugated, ``(n_pairs, d)``."""
        labels = [label for label, _ in self.pairs]
        return self._steps(labels), _frozen_state([t.conj() for _, t in self.pairs])


def deutsch_oracle(name: str) -> np.ndarray:
    """Phase oracle of a one-bit Boolean function: |k> -> exp(i pi f(k)) |k>.

    ``const0`` and ``const1`` give +I and -I (the two constant functions);
    ``identity`` gives diag(1, -1) and ``negation`` diag(-1, 1) (the two
    balanced functions).
    """
    if name not in _DEUTSCH_TABLES:
        raise ValueError(f"unknown one-bit function {name!r}; choose from {DEUTSCH_FUNCTIONS}")
    f0, f1 = _DEUTSCH_TABLES[name]
    return np.diag([(-1.0 + 0j) ** f0, (-1.0 + 0j) ** f1])


def deutsch_task() -> TaskSpec:
    """One-bit oracle-decision task: drive |0> to |0> for a constant function
    and to |1> for a balanced one, with the oracle applied exactly once
    between two trainable single-qubit unitaries.

    One representative per Boolean-function class (``const0`` and
    ``identity``) suffices because the two constants, and the two balanced
    functions, differ only by a global phase; the oracle table holds all
    four functions.
    """
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    return TaskSpec(
        dim=2,
        slots=(TrainableSlot(1), OracleSlot("oracle"), TrainableSlot(2)),
        initial_state=ket0,
        pairs=(("const0", ket0), ("identity", ket1)),
        oracle_families={"oracle": {name: deutsch_oracle(name) for name in DEUTSCH_FUNCTIONS}},
        name="deutsch",
    )


def _trainable_unitaries(params: np.ndarray, dim: int) -> np.ndarray:
    return su2_closed_form(params) if dim == 2 else unitary_from_params(params, dim)


def _walk(steps, unitaries, state) -> np.ndarray:
    """``state``, shape ``(labels, d, ...)``, through ``steps`` in order;
    ``unitaries[k]``, shape ``(d, d, ...)``, is trainable slot ``k``'s."""
    for step in steps:
        if isinstance(step, int):
            state = np.einsum("ij...,pj...->pi...", unitaries[step], state)
        else:
            state = np.einsum("pij,pj...->pi...", step, state)
    return state


def compose_total(task: TaskSpec, params: np.ndarray, x: str) -> np.ndarray:
    """Total operator of the circuit for input label ``x`` and one candidate's
    decoded parameters, shape ``(n_slots, n_components)``.

    Trainable slot ``k`` takes row ``k - 1`` of ``params``; oracle slots
    look ``x`` up in their family table (``KeyError`` if it is not there).
    The identity walks the circuit, its columns as the batch axis.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (task.n_slots, task.n_components):
        raise ValueError(
            f"params shape {params.shape} does not match {task.n_slots} trainable slots"
        )
    us = _trainable_unitaries(params, task.dim)
    return _walk(task._steps([x]), us, np.eye(task.dim, dtype=complex)[None])[0]


def population_fitness(task: TaskSpec, params: np.ndarray) -> np.ndarray:
    """Mean output fidelity against the targets, batched over candidates.

    ``params`` has shape ``(..., n_slots, n_components)``; the result drops the last
    two axes.  Each candidate scores the average of ``|<target_x| U_total(x)
    |initial>|**2`` over the task's input-target pairs.

    The leading axes are flattened to one batch axis, which is made the last
    and contiguous axis of every operand, so each contraction's inner loop
    runs over the candidates.  The pairs share one contraction per slot
    through a pair axis, which stays length 1 until the first oracle slot, so
    the trainable slots before it are applied once for all pairs.  Each
    contraction sums over the state index in order and the fidelities add up
    in task order, as scoring pair by pair would, so a candidate's score is
    bit-identical whatever batch it is scored in.  The products stay
    ``np.einsum``: the complex ``*`` ufunc and ``@`` agree with it on
    Deutsch's +-1 diagonal oracles, not in general.
    """
    params = np.asarray(params, dtype=float)
    d = task.dim
    shape = (task.n_slots, task.n_components)
    if params.shape[-2:] != shape:
        raise ValueError(f"params must end in shape {shape}, got {params.shape[-2:]}")
    lead = params.shape[:-2]
    us = _trainable_unitaries(params.reshape((-1,) + params.shape[-2:]), d)
    # (slots, d, d, batch): the candidates are einsum's inner loop
    us = np.ascontiguousarray(us.transpose(1, 2, 3, 0))
    steps, targets = task._circuit_plan
    state = _walk(steps, us, task.initial_state[None])
    amp = np.einsum("pi,pi...->p...", targets, state)
    prob = amp.real**2 + amp.imag**2
    total = prob[0]
    for k in range(1, len(targets)):  # pair by pair, in task order
        total = total + prob[k]
    return total.reshape(lead) / len(targets)


def decision_outcome(out_constant: np.ndarray, out_balanced: np.ndarray):
    """Measurement statistics of the two-branch decision in the {|0>,|1>} basis.

    Returns ``(success_constant, success_balanced, orthogonality_defect)``:
    the probabilities of announcing each branch correctly, and the squared
    overlap of the two output states (0 exactly when a single query can
    discriminate them perfectly).
    """
    a = np.asarray(out_constant, dtype=complex)
    b = np.asarray(out_balanced, dtype=complex)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"output shapes do not match: {a.shape} vs {b.shape}")
    success_const = float(abs(a[0]) ** 2)
    success_balanced = float(abs(b[1]) ** 2)
    defect = float(abs(np.einsum("i,i->", a.conj(), b)) ** 2)
    return success_const, success_balanced, defect


def _complex_to_json(a: np.ndarray):
    """Complex entries as nested ``[re, im]`` pairs."""
    a = np.asarray(a, complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _complex_from_json(pairs) -> np.ndarray:
    """Inverse of :func:`_complex_to_json`."""
    return np.array(pairs, dtype=float).view(complex)[..., 0]


def task_to_dict(task: TaskSpec) -> dict:
    """JSON-ready description of a task (complex numbers as [re, im] pairs)."""
    slots = []
    for slot in task.slots:
        if isinstance(slot, TrainableSlot):
            slots.append({"kind": "trainable", "index": slot.index})
        else:
            slots.append({"kind": "oracle", "family": slot.family})
    return {
        "name": task.name,
        "dim": task.dim,
        "slot_order": SLOT_ORDER_CONVENTION,
        "slots": slots,
        "initial_state": _complex_to_json(task.initial_state),
        "pairs": [[label, _complex_to_json(t)] for label, t in task.pairs],
        "oracle_families": {
            fam: {label: _complex_to_json(m) for label, m in table.items()}
            for fam, table in task.oracle_families.items()
        },
    }


def task_from_dict(data: dict) -> TaskSpec:
    """Inverse of :func:`task_to_dict`.  A missing key, a field of the wrong
    type or an invalid task raises ``ValueError("malformed task
    description: ...")``."""
    try:
        order = data.get("slot_order", SLOT_ORDER_CONVENTION)
        if order != SLOT_ORDER_CONVENTION:
            raise ValueError(f"unsupported slot order {order!r}")
        slots = []
        for s in data["slots"]:
            if s["kind"] == "trainable":
                slots.append(TrainableSlot(_integer(s["index"], "index")))
            elif s["kind"] == "oracle":
                slots.append(OracleSlot(s.get("family", "oracle")))
            else:
                raise ValueError(f"unknown slot kind {s['kind']!r}")
        return TaskSpec(
            dim=_integer(data["dim"], "dim"),
            slots=slots,
            initial_state=_complex_from_json(data["initial_state"]),
            pairs=tuple((label, _complex_from_json(t)) for label, t in data["pairs"]),
            oracle_families={
                fam: {label: _complex_from_json(m) for label, m in table.items()}
                for fam, table in data.get("oracle_families", {}).items()
            },
            name=data.get("name", ""),
        )
    except KeyError as exc:
        raise ValueError(f"malformed task description: missing key {exc.args[0]!r}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed task description: {exc}") from exc


def _integer(value, key: str) -> int:
    if int(value) != value:  # int() alone would truncate 2.7 to 2
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def save_task(task: TaskSpec, path) -> None:
    """Write a task description file, atomically like every file evogate writes."""
    write_text(path, json.dumps(task_to_dict(task), indent=2, sort_keys=True) + "\n")


def load_task(path) -> TaskSpec:
    """Read a task description file."""
    with open(path, encoding="utf-8") as fh:
        return task_from_dict(json.load(fh))
