"""A rule-based optimizer for logical PRA plans: the one home of plan rewriting.

Every engine request is a PRA plan, so the rewrites run here, on the
probabilistic algebra, before a plan reaches the evaluator; the relational
layer executes the plans it is given as written.  Only rewrites that provably
preserve the probability semantics of :mod:`repro.pra.operators` are
implemented:

* **selection fusion** — ``SELECT p2 (SELECT p1 (x))`` becomes
  ``SELECT [p1 AND p2] (x)``: selections keep tuple probabilities untouched,
  so conjoining predicates changes nothing;
* **weight folding** — ``WEIGHT a (WEIGHT b (x))`` becomes
  ``WEIGHT a*b (x)`` and ``WEIGHT 1.0 (x)`` disappears: probability scaling
  is associative;
* **selection past weight** — ``SELECT p (WEIGHT f (x))`` becomes
  ``WEIGHT f (SELECT p (x))``: predicates only see value columns, never
  ``p``, so filtering commutes with scaling (and exposes further fusion);
* **selection into union** — ``SELECT p (UNITE (a, b))`` distributes into
  ``UNITE (SELECT p (a), SELECT p (b))``: the union merges tuples with equal
  value columns, and equal tuples agree on any value-column predicate.

Rewrites that evaluate a predicate over rows the original plan filtered out
(fusion, distribution into union) only fire for *total* predicates —
comparisons, boolean connectives, references, literals.  Predicates
containing scalar UDF calls may raise value-dependently and are left where
the query author put them.

Rank-aware rewrites push :class:`~repro.pra.plan.PraTop` towards the leaves
so ``top(k)`` never has to materialise and fully sort large intermediates:

* **top absorption** — ``TOP k1 (TOP k2 (x))`` becomes ``TOP min(k1,k2) (x)``;
* **top past weight** — ``TOP k (WEIGHT f (x))`` becomes
  ``WEIGHT f (TOP k (x))`` for ``f > 0``: scaling by a strictly positive
  constant preserves the (probability, value-key) order exactly, ties
  included.  ``f = 0`` collapses every probability to zero, so the original
  plan's top-k (chosen *before* scaling) differs from the pushed one — the
  rule does not fire;
* **top into union** — ``TOP k (UNITE SUBSUMED (a, b))`` prunes both sides to
  ``TOP k`` first.  This is sound only under the SUBSUMED (max) merge, and
  only when both sides are provably duplicate-free (their root merges
  duplicates: a projection, a union, …).  Under INDEPENDENT or DISJOINT
  merges the combined probability exceeds either input, so a tuple ranked
  below k on *both* sides can still reach the global top-k (e.g. ``k=1``,
  ``a = {u:0.6, t:0.5}``, ``b = {v:0.6, t:0.5}`` — the independent union
  ranks ``t`` first at ``0.75``); with duplicate rows inside one side, k rows
  of one high-probability tuple can crowd every other group out of the
  pruned side.  Both cases provably stop the pushdown.

``TOP`` never crosses BAYES (normalisation depends on whole-group totals),
SUBTRACT (the right side rescales left probabilities non-uniformly), SELECT
(the filter must see its rows before any pruning), PROJECT (duplicate
merging can lift a low-ranked tuple above pruned ones) or JOIN (match
probabilities combine across sides).

Rules are applied bottom-up to a fixpoint, mirroring the relational
optimizer's driver loop.  A node no rule changes, its subplan included, stays
the same object, and a subplan two parents share stays shared.
"""

from __future__ import annotations

from repro.pra.assumptions import Assumption
from repro.pra.expressions import PositionalRef
from repro.pra.plan import (
    PraPlan,
    PraSelect,
    PraTop,
    PraUnite,
    PraWeight,
)
from repro.relational.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    UnaryOp,
)

def optimize_pra(plan: PraPlan) -> PraPlan:
    """Apply all rewrite rules bottom-up until the plan stops changing."""
    previous_fingerprint = None
    current = plan
    while current.fingerprint() != previous_fingerprint:
        previous_fingerprint = current.fingerprint()
        current = _rewrite(current, {})
    return current


def _rewrite(plan: PraPlan, done: dict[int, PraPlan]) -> PraPlan:
    """One bottom-up pass; ``done`` holds this pass's result by input node."""
    if id(plan) in done:
        return done[id(plan)]
    original = plan
    # PraProject / PraBayes keep positional references that are only valid
    # against their direct child's column layout, so their subtree is
    # rewritten but no rule below reorders the node itself
    children = plan.children()
    rewritten = [_rewrite(child, done) for child in children]
    if any(new is not old for new, old in zip(rewritten, children)):
        plan = plan.with_children(rewritten)
    plan = _fold_weights(plan)
    plan = _push_select_past_weight(plan)
    plan = _push_select_into_unite(plan)
    plan = _fuse_selections(plan)
    plan = _absorb_tops(plan)
    plan = _push_top_past_weight(plan)
    plan = _push_top_into_unite(plan)
    done[id(original)] = plan
    return plan


def _is_simple_predicate(expression: Expression) -> bool:
    """True if evaluating ``expression`` on extra rows cannot raise.

    Comparisons, boolean connectives, column/positional references and
    literals are total over whatever rows they see; anything else (notably
    scalar UDF calls, which may raise value-dependently) makes a rewrite that
    evaluates the predicate over rows the original plan filtered out unsafe.
    """
    if isinstance(expression, (Literal, ColumnRef, PositionalRef)):
        return True
    if isinstance(expression, BinaryOp):
        return _is_simple_predicate(expression.left) and _is_simple_predicate(
            expression.right
        )
    if isinstance(expression, UnaryOp):
        return _is_simple_predicate(expression.operand)
    return False


def _fuse_selections(plan: PraPlan) -> PraPlan:
    if isinstance(plan, PraSelect) and isinstance(plan.child, PraSelect):
        # fusing evaluates the outer predicate over rows the inner one would
        # have removed, so both must be total
        if not (
            _is_simple_predicate(plan.predicate)
            and _is_simple_predicate(plan.child.predicate)
        ):
            return plan
        inner = plan.child
        combined = BinaryOp("and", inner.predicate, plan.predicate)
        return PraSelect(inner.child, combined)
    return plan


def _fold_weights(plan: PraPlan) -> PraPlan:
    if isinstance(plan, PraWeight) and isinstance(plan.child, PraWeight):
        inner = plan.child
        return PraWeight(inner.child, plan.factor * inner.factor)
    if isinstance(plan, PraWeight) and plan.factor == 1.0:
        return plan.child
    return plan


def _push_select_past_weight(plan: PraPlan) -> PraPlan:
    if isinstance(plan, PraSelect) and isinstance(plan.child, PraWeight):
        weight = plan.child
        return PraWeight(PraSelect(weight.child, plan.predicate), weight.factor)
    return plan


def _push_select_into_unite(plan: PraPlan) -> PraPlan:
    if isinstance(plan, PraSelect) and isinstance(plan.child, PraUnite):
        # the union merges duplicate tuples, so distributing evaluates the
        # predicate over the (larger) pre-merge row sets — it must be total
        if not _is_simple_predicate(plan.predicate):
            return plan
        unite = plan.child
        return PraUnite(
            PraSelect(unite.left, plan.predicate),
            PraSelect(unite.right, plan.predicate),
            unite.assumption,
        )
    return plan


# ---------------------------------------------------------------------------
# Rank-aware rewrites: TOP pushdown
# ---------------------------------------------------------------------------


def _absorb_tops(plan: PraPlan) -> PraPlan:
    if isinstance(plan, PraTop) and isinstance(plan.child, PraTop):
        inner = plan.child
        return PraTop(inner.child, min(plan.k, inner.k))
    return plan


def _push_top_past_weight(plan: PraPlan) -> PraPlan:
    # scaling by f > 0 is strictly monotone and leaves values untouched, so
    # the (probability, value-key) order — ties included — is preserved
    # exactly; f = 0 maps every probability to zero and would change which
    # tuples the top-k keeps
    if isinstance(plan, PraTop) and isinstance(plan.child, PraWeight):
        weight = plan.child
        if weight.factor > 0:
            return PraWeight(PraTop(weight.child, plan.k), weight.factor)
    return plan


def _produces_distinct(plan: PraPlan) -> bool:
    """True if ``plan`` provably never emits two rows with equal value columns.

    The duplicate-freeness lattice is shared with the static verifier; the
    single implementation lives in :mod:`repro.analysis.lattice` so the
    optimizer's prune rule and the verifier's assumption diagnostics can
    never drift apart.
    """
    from repro.analysis.lattice import produces_distinct

    return produces_distinct(plan)


def _already_pruned(side: PraPlan, k: int) -> bool:
    """True if ``side`` already limits itself to at most ``k`` rows.

    The top-past-weight rule moves an inserted TOP below the side's weights,
    so look through the weight chain — otherwise the unite rule would re-wrap
    the side every pass and oscillate instead of reaching a fixpoint.
    """
    node = side
    while isinstance(node, PraWeight):
        node = node.child
    return isinstance(node, PraTop) and node.k <= k


def _push_top_into_unite(plan: PraPlan) -> PraPlan:
    # sound only under the SUBSUMED (max) merge — the merged probability is
    # then attained by one of the inputs — and only for duplicate-free sides;
    # see the module docstring for the counterexamples that stop the rewrite
    # under INDEPENDENT/DISJOINT merges or multiset sides
    if not (isinstance(plan, PraTop) and isinstance(plan.child, PraUnite)):
        return plan
    unite = plan.child
    if unite.assumption is not Assumption.SUBSUMED:
        return plan
    if not (_produces_distinct(unite.left) and _produces_distinct(unite.right)):
        return plan

    def prune(side: PraPlan) -> PraPlan:
        if _already_pruned(side, plan.k):
            return side
        return PraTop(side, plan.k)

    left, right = prune(unite.left), prune(unite.right)
    if left is unite.left and right is unite.right:
        return plan
    return PraTop(PraUnite(left, right, unite.assumption), plan.k)
