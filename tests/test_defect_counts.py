"""Known defects of the benchmark's ``defective`` pool at seed 7919, the
seed the benchmark is judged on, pinned as exact counts: the items
``classify`` refuses, the real certificates refused after a strict verdict,
and how many of those the documented recovery, a retry at another
``cluster_tol``, certifies.  The counts depend on the float bits of the
LAPACK build (CHANGES.md records the one they were measured on); a change
that lowers a defect count re-pins it and says why."""

from collections import Counter

import numpy as np

from _gen import workloads
from ddsim import Target, Verdict, build_complex_dd_transform, build_real_dd_transform, classify
from ddsim.errors import ClusterAmbiguity, IllConditionedJordan

#: The looser clustering tolerance README names for the retry.
_RETRY_TOL = 1e-4


def test_defective_pool_counts_and_cluster_tol_recovery(tmp_path):
    pools = workloads()
    make, _, _ = pools.WORKLOADS["defective"]
    verdicts, built, refused = Counter(), 0, []
    for item in make(np.random.default_rng(7919), tmp_path):
        a = item["a"]
        try:
            verdict = classify(a).verdict
        except ClusterAmbiguity:
            verdicts["ClusterAmbiguity"] += 1
            continue
        verdicts[verdict] += 1
        try:
            build_real_dd_transform(a, Target.STRICT)
            built += 1
        except IllConditionedJordan:
            refused.append(a)
    assert verdicts == {Verdict.STRICT_ACHIEVABLE: 211, "ClusterAmbiguity": 5}
    assert (built, len(refused)) == (72, 139)

    # the retry keeps every verdict and certifies 83 of the 139, each
    # certificate accepted by the benchmark's own checker
    retried = Counter()
    for a in refused:
        assert classify(a, cluster_tol=_RETRY_TOL).verdict is Verdict.STRICT_ACHIEVABLE
        try:
            certificates = (build_real_dd_transform(a, Target.STRICT, cluster_tol=_RETRY_TOL),
                            build_complex_dd_transform(a, cluster_tol=_RETRY_TOL))
        except IllConditionedJordan:
            retried["refused"] += 1
            continue
        for c in certificates:
            assert pools.check.certificate_problem(a, c.P, c.B) is None
        retried["certified"] += 1
    assert retried == {"certified": 83, "refused": 56}
