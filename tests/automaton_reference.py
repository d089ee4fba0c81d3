"""The r-of-s automaton built state by state: the tests' reference for
``runrules.rule_automaton``, which builds its tables and its partition from
arrays instead."""

import numpy as np

from cvrunrules.runrules import RuleAutomaton


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
