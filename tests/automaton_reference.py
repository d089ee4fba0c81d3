"""The r-of-s automaton built state by state: the tests' reference for
``runrules.rule_automaton``, which builds its tables and its partition from
arrays instead.  Also the full history chain as a dense matrix, the
reference for the lumped chain that ``runrules.run_length_metrics`` solves."""

from typing import NamedTuple

import numpy as np

from cvrunrules.runrules import RuleAutomaton, rule_automaton


def _partition(t_in: np.ndarray, t_out: np.ndarray) -> np.ndarray:
    """Moore refinement: split states by their own class, their inside
    successor's class and their outside successor's class (-1 absorbs)
    until no class splits; each round numbers the classes in the
    lexicographic order of their signature rows."""
    block = np.zeros(t_in.size, dtype=np.int64)
    while True:
        out_block = np.where(t_out >= 0, block[t_out], -1)
        signature = np.stack([block, block[t_in], out_block], axis=1)
        _, refined = np.unique(signature, axis=0, return_inverse=True)
        refined = refined.reshape(-1).astype(np.int64)
        if refined.max() == block.max():
            return refined
        block = refined


def reference_automaton(r: int, s: int) -> RuleAutomaton:
    """The automaton of the r-of-s rule from a dictionary of history
    values: states in descending value order, each next state looked up
    by value, each state's bit tuple read one bit at a time."""
    width = s - 1
    mask = (1 << width) - 1
    values = [v for v in range(mask, -1, -1) if bin(v).count("1") < r]
    index = {v: i for i, v in enumerate(values)}
    t_in = np.array([index[(v << 1) & mask] for v in values], dtype=np.int64)
    t_out = np.array(
        [-1 if bin(v).count("1") + 1 >= r else index[((v << 1) | 1) & mask] for v in values],
        dtype=np.int64,
    )
    block = _partition(t_in, t_out)
    representatives = np.unique(block, return_index=True)[1].astype(np.int64)
    states = tuple(tuple((v >> (width - 1 - i)) & 1 for i in range(width)) for v in values)
    return RuleAutomaton(
        states=states,
        t_in=t_in,
        t_out=t_out,
        initial_index=len(values) - 1,
        block=block,
        representatives=representatives,
    )


class DenseChain(NamedTuple):
    """The transient part of the full history chain at one p."""

    states: tuple[tuple[int, ...], ...]
    transition: np.ndarray  # transient-to-transient probabilities
    absorption: np.ndarray  # per-state probability of signaling on the next point
    initial_index: int


def reference_chain(r: int, s: int, p: float) -> DenseChain:
    """The r-of-s history chain at inside probability p, from the next-state
    tables of ``rule_automaton``: an inside point moves a state along t_in
    with mass p, an outside point along t_out with mass 1 - p, and where
    t_out absorbs that mass is the state's absorption."""
    automaton = rule_automaton(r, s)
    rows = np.arange(len(automaton.states))
    stays = automaton.t_out >= 0
    transition = np.zeros((rows.size, rows.size))
    transition[rows, automaton.t_in] = p
    transition[rows[stays], automaton.t_out[stays]] = 1.0 - p
    return DenseChain(
        states=automaton.states,
        transition=transition,
        absorption=np.where(stays, 0.0, 1.0 - p),
        initial_index=automaton.initial_index,
    )
