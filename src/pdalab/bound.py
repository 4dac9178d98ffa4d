"""Auditing the estimation error of the class transferable probability.

The class weights are estimated as the mean target prediction; their
true counterpart is the target label frequency, known only to an
oracle.  The L1 error between the two is bounded by exactly computable
quantities over the empirical target set:

    w_error_l1 <= 2*delta_bar + 2*e_type1 + 2*e_tgt_shared

where delta_bar is the mean complement of the row-max confidence,
e_type1 the fraction of target predictions falling outside the shared
class set, and e_tgt_shared the error of the shared-class-restricted
argmax against the true labels.  This intermediate inequality holds
verbatim for the empirical measure.  :func:`check_intermediate` asserts
it, for every fresh report through :func:`intermediate_terms` (runs that
keep no report make that call alone) and for stored ones.  Each target-side
term takes an [m, K] prediction matrix or an [S, m, K] stack of them, for one
value per slice with the bits of that slice's matrix.

The full right-hand side swaps the target restricted error for the
source one plus a feature-distribution divergence.  The divergence is
only estimable (the held-out error of a ridge least-squares domain
classifier), so the full bound is reported, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .selection import as_pred_matrix, class_transferable_probability, true_class_weights

PROXY_TEST_FRACTION = 0.2  # held-out share of each domain's features
# Per-sample L2 penalty of the proxy domain classifier, bias included: it
# keeps the normal equations positive definite on constant or duplicate columns.
PROXY_RIDGE = 0.05

INTERMEDIATE_TOL = 1e-9


class BoundViolationError(RuntimeError):
    """The intermediate inequality failed: an implementation bug, not data."""


def in_classes(labels, classes) -> np.ndarray:
    """Elementwise ``label in classes``, as ``np.isin`` gives it for integer
    labels, by a binary search of the sorted classes."""
    classes = np.array(sorted(set(int(c) for c in classes)), dtype=np.int64)
    if not classes.size or classes[0] < 0:
        raise ValueError("a nonempty set of nonnegative class indices is required")
    return classes[np.minimum(classes.searchsorted(labels), classes.size - 1)] == labels


@dataclass(frozen=True)
class OracleContext:
    """Ground truth withheld from training: shared classes and target labels."""

    shared_classes: tuple[int, ...]
    target_labels: np.ndarray

    def __post_init__(self):
        shared = tuple(sorted(set(int(c) for c in self.shared_classes)))
        if not shared:
            raise ValueError("shared class set must be nonempty")
        object.__setattr__(self, "shared_classes", shared)
        labels = np.asarray(self.target_labels)
        if labels.size and not in_classes(labels, shared).all():
            raise ValueError("target labels must lie inside the shared class set")
        object.__setattr__(self, "target_labels", labels)


@dataclass(frozen=True)
class BoundReport:
    """Every bound term at one training checkpoint."""

    delta_bar: float
    e_type1: float
    e_src_shared: float
    e_tgt_shared: float
    d_hdh_proxy: float
    w_error_l1: float
    rhs_intermediate: float
    rhs_full: float
    epoch: int


def delta_bar(target_preds):
    """Mean complement of the classifier confidence, E[1 - max_row]."""
    p = as_pred_matrix(target_preds)
    top = p[..., 0].copy()  # the row max column by column, as softmax_rows takes it
    for j in range(1, p.shape[-1]):
        np.maximum(top, p[..., j], out=top)
    return np.mean(1.0 - top, axis=-1)


def type1_error(target_preds, shared_classes):
    """Fraction of rows whose argmax falls outside the shared class set."""
    predicted = as_pred_matrix(target_preds).argmax(axis=-1)
    return np.mean(~in_classes(predicted, shared_classes), axis=-1)


def restricted_argmax(preds, shared_classes) -> np.ndarray:
    """Argmax over shared-class columns only; ties go to the lowest index."""
    p = as_pred_matrix(preds)
    shared = np.asarray(sorted(set(shared_classes)))
    if shared.size == 0:
        raise ValueError("shared class set must be nonempty")
    return shared[p[..., shared].argmax(axis=-1)]


def shared_error(preds, labels, shared_classes):
    """Fraction of samples misclassified by the shared-class-restricted argmax."""
    labels = np.asarray(labels)
    if not in_classes(labels, shared_classes).all():
        raise ValueError("labels must lie inside the shared class set")
    return np.mean(restricted_argmax(preds, shared_classes) != labels, axis=-1)


def w_estimation_error(target_preds, oracle: OracleContext):
    """L1 distance between estimated and true class transferable probability."""
    return class_weight_error(class_transferable_probability(target_preds), oracle)


def class_weight_error(w_hat, oracle: OracleContext):
    """L1 distance of estimated class weights, one vector or one per slice, from the true ones."""
    return np.abs(true_class_weights(oracle.target_labels, w_hat.shape[-1]) - w_hat).sum(axis=-1)


def _fit_least_squares(x, t):
    """Ridge least-squares linear classifier, from one solve of its normal equations.

    Minimizes |x @ w + b - t|^2 / 2 + (PROXY_RIDGE * n / 2) * |(w, b)|^2.
    """
    n = x.shape[0]
    x1 = np.hstack([x, np.ones((n, 1))])  # bias last
    gram = x1.T @ x1
    gram.ravel()[::gram.shape[0] + 1] += PROXY_RIDGE * n
    theta = np.linalg.solve(gram, x1.T @ t)
    return theta[:-1], theta[-1]


def proxy_test_rows(n: int, what: str) -> int:
    """Held-out rows of ``n`` in the divergence proxy's train/test split.

    Raises ValueError unless both parts of the split are nonempty.
    """
    n_test = int(round(n * PROXY_TEST_FRACTION))
    if not 1 <= n_test < n:
        raise ValueError(f"{n} {what} are too few for the divergence proxy's "
                         "train/test split")
    return n_test


def estimate_hdh_divergence(source_features, target_features,
                            rng: np.random.Generator) -> float:
    """Proxy divergence 2*(1 - 2*eps), floored at 0.

    eps is the held-out error of a linear domain classifier fitted on an
    80/20 split of the standardized frozen features: ridge least squares
    on targets +1 (source) and -1 (target), with lambda = PROXY_RIDGE =
    0.05 per sample on every parameter, bias included, fitted in one
    linear solve.  A row is called source where x @ w + b >= 0.  The
    proxy may under-estimate the supremum divergence, so it is reported
    but never asserted against.
    """
    xs = np.asarray(source_features, dtype=np.float64)
    xt = np.asarray(target_features, dtype=np.float64)
    if xs.ndim != 2 or xt.ndim != 2 or xs.shape[0] == 0 or xt.shape[0] == 0:
        raise ValueError("both feature sets must be nonempty 2-d arrays")
    n_test_s = proxy_test_rows(xs.shape[0], "source rows")
    n_test_t = proxy_test_rows(xt.shape[0], "target rows")
    ps = rng.permutation(xs.shape[0])
    pt = rng.permutation(xt.shape[0])

    x_tr = np.concatenate([xs[ps[n_test_s:]], xt[pt[n_test_t:]]])  # source rows, then target
    t_tr = np.repeat((1.0, -1.0), (len(ps) - n_test_s, len(pt) - n_test_t))
    mu = x_tr.mean(axis=0)
    centered = x_tr - mu
    # The value of x_tr.std(axis=0), from the centered copy made anyway.
    sd = np.maximum(np.sqrt((centered * centered).mean(axis=0)), 1e-8)
    centered /= sd
    w, b = _fit_least_squares(centered, t_tr)

    x_te = np.concatenate([xs[ps[:n_test_s]], xt[pt[:n_test_t]]])
    pred = ((x_te - mu) / sd) @ w + b >= 0.0  # True: called source
    errors = n_test_s - np.count_nonzero(pred[:n_test_s]) + np.count_nonzero(pred[n_test_s:])
    eps = float(errors / len(pred))
    return max(0.0, 2.0 * (1.0 - 2.0 * eps))


def check_intermediate(w_error_l1, rhs_intermediate, epoch: int) -> None:
    """Raise BoundViolationError, naming ``epoch``, if ``w_error_l1``
    exceeds ``rhs_intermediate`` by more than INTERMEDIATE_TOL.  Over values
    per slice, the first slice that fails is the one reported."""
    lhs, rhs = (a.ravel().tolist() for a in np.broadcast_arrays(w_error_l1, rhs_intermediate))
    for w, r in zip(lhs, rhs):
        if w > r + INTERMEDIATE_TOL:
            raise BoundViolationError(f"intermediate inequality violated: "
                                      f"{w} > {r} (epoch {epoch})")


def intermediate_terms(target_preds, oracle: OracleContext, epoch: int = 0) -> dict:
    """The target-side bound terms, after asserting the intermediate inequality.

    Returns ``delta_bar``, ``e_type1``, ``e_tgt_shared``, ``w_error_l1`` (that
    of the class weights of ``target_preds``) and ``rhs_intermediate``, keyed by
    their BoundReport field names, each one value per slice of a stack;
    :func:`check_intermediate` raises if the inequality fails.
    """
    db = delta_bar(target_preds)
    e1 = type1_error(target_preds, oracle.shared_classes)
    e_tgt = shared_error(target_preds, oracle.target_labels, oracle.shared_classes)
    w_err = w_estimation_error(target_preds, oracle)
    rhs_i = 2.0 * (db + e1 + e_tgt)
    check_intermediate(w_err, rhs_i, epoch)
    return {"delta_bar": db, "e_type1": e1, "e_tgt_shared": e_tgt,
            "w_error_l1": w_err, "rhs_intermediate": rhs_i}


def check_bound(target_preds, oracle: OracleContext, source_preds, source_labels,
                source_features, target_features, rng: np.random.Generator,
                epoch: int = 0) -> BoundReport:
    """Every bound term: the asserted :func:`intermediate_terms` plus the
    reported source-side error and divergence proxy.

    The source-side terms are evaluated on the source rows given, whose
    labels must lie in the shared classes (:func:`shared_error` raises
    otherwise).  The proxy draws its split from ``rng``.  The report holds
    Python floats.
    """
    terms = {name: float(v) for name, v in intermediate_terms(target_preds, oracle, epoch).items()}
    e_src = float(shared_error(source_preds, source_labels, oracle.shared_classes))
    d_proxy = estimate_hdh_divergence(source_features, target_features, rng)
    rhs_f = 2.0 * (terms["delta_bar"] + terms["e_type1"] + e_src + d_proxy)
    return BoundReport(**terms, e_src_shared=e_src, d_hdh_proxy=d_proxy,
                       rhs_full=rhs_f, epoch=epoch)
