"""Per-iteration invariant checks for learning sessions with a known target.

The observer plugs into a LearnerSession and asserts, after every
iteration, the structural facts the learner's analysis rests on: block
shape, stored-example consistency, false-set disjointness among negatives
breaking the same target clause, growth on replacement, the size bounds on
the stored negatives, and strict decrease of the potential on negative
iterations (and of the hypothesis size on positive ones).
"""

from mvdlearn import MvdFormula, satisfies, violates


class InvariantObserver:
    def __init__(self, target: MvdFormula):
        self.target = target
        self.n = target.universe.n
        self.m = len(target.clauses)
        self.limit = self.n * self.n * self.m
        self.prev_potential = None
        self.prev_clause_count = None
        self.negative_iterations = 0
        self.iterations = 0

    def __call__(self, session, event):
        self.iterations += 1
        record = event.record
        if self.prev_potential is None:
            self.prev_potential = self.limit  # empty store spends nothing
        if self.prev_clause_count is None:
            self.prev_clause_count = len(session.h0.clauses)

        negatives = session.negatives
        blocks = session.blocks

        # stored negatives always keep at least two false variables
        for neg in negatives:
            assert neg.false_mask.bit_count() >= 2

        # block structure: left sides partition the false set, right sides
        # are the complements within it and never empty
        for neg, block in zip(negatives, blocks):
            seen_y = 0
            for clause in block:
                assert clause.x_mask == neg.mask
                assert clause.y_mask and clause.z_mask
                assert clause.y_mask & seen_y == 0
                assert (clause.y_mask | clause.z_mask) == neg.false_mask
                seen_y |= clause.y_mask
            assert seen_y == neg.false_mask

        # every stored positive satisfies every block
        for pos in session.positives:
            assert satisfies(pos, self.target)
            for block in blocks:
                assert satisfies(pos, block)

        # every stored negative breaks the target but satisfies the rest of
        # the hypothesis (its own block excluded)
        for i, neg in enumerate(negatives):
            assert not satisfies(neg, self.target)
            rest = list(session.h0.clauses)
            for j, block in enumerate(blocks):
                if j != i:
                    rest.extend(block)
            assert satisfies(neg, rest)

        # negatives breaking the same target clause have disjoint false sets,
        # so each target clause is charged to at most n negatives
        for clause in self.target.clauses:
            breakers = [neg for neg in negatives if violates(neg, clause)]
            assert len(breakers) <= self.n
            for a in range(len(breakers)):
                for b in range(a + 1, len(breakers)):
                    assert breakers[a].false_mask & breakers[b].false_mask == 0

        assert len(negatives) <= self.n * self.m

        # replacement grows the false set strictly and is capped per slot
        if record.event == "replace":
            old = event.replaced_old
            new = event.refined
            assert old.false_mask & ~new.false_mask == 0
            assert old.false_mask != new.false_mask
        for count in session.replacements:
            assert count <= self.n

        # potential decreases strictly on negative iterations and is
        # untouched by positive ones; the hypothesis shrinks on positives
        potential = record.potential
        assert potential is not None and potential >= 0
        clause_count = len(session.hypothesis.clauses)
        if record.event == "positive":
            assert potential == self.prev_potential
            assert clause_count < self.prev_clause_count
        else:
            self.negative_iterations += 1
            assert potential < self.prev_potential
        assert self.negative_iterations <= self.limit
        self.prev_potential = potential
        self.prev_clause_count = clause_count
