"""Greedy merging segmentation (Algorithm 3 of the paper).

Given a sorted sequence ``xs`` (raw keys at height 0, child lower bounds
at higher levels) with implicit targets ``ys = 0..n-1``, the algorithm:

1. starts from ``n/2`` pieces of two (the last of three) elements,
2. repeatedly merges the adjacent pair of pieces whose merge increases
   total linear-fit loss the least, maintaining per-piece statistics in
   O(1) per merge via :class:`~repro.core.linear_model.SegmentStats`,
3. after every merge evaluates the *estimated accumulated search cost*
   (Eq. 7) of the current breakpoint list in O(1),
4. stops when the mean piece size reaches the fanout cap ``omega`` and
   returns the segmentation whose cost estimate was smallest.

Because merging is destructive, the merge order is recorded and the
winning configuration is reconstructed afterwards from the removed
boundaries; this keeps the whole routine O(n log n).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.cost import CostParams, DEFAULT_COST, accumulated_cost
from repro.core.linear_model import LinearModel, SegmentStats


@dataclass(frozen=True)
class Segment:
    """One piece of the chosen segmentation.

    Attributes:
        start: Index of the first element (inclusive) in the input array.
        end: Index one past the last element.
        model: Least-squares line fit on (xs[start:end], start..end-1),
            i.e. targets are *global* positions, matching Eq. 3/4 where
            the node-local model subtracts the piece offset afterwards.
        rmse: Root-mean-square error of the fit over this piece.
    """

    start: int
    end: int
    model: LinearModel
    rmse: float

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass
class SegmentationResult:
    """Output of :func:`greedy_merging`.

    Attributes:
        segments: Chosen pieces in key order.
        cost: Estimated accumulated search cost of the chosen layout.
        cost_curve: ``{k: cost}`` for every piece count evaluated; kept
            for the hyperparameter benchmarks and tests.
    """

    segments: list[Segment]
    cost: float
    cost_curve: dict[int, float] = field(default_factory=dict)

    def piece_starts(self) -> list[int]:
        """Start index of each piece (indices into the input array)."""
        return [seg.start for seg in self.segments]


def _initial_pieces(n: int) -> list[tuple[int, int]]:
    """Size-2 pieces over ``range(n)``; the last piece absorbs a leftover.

    Mirrors Algorithm 3 line 2: ``{{0,1},{2,3},...,{2k-2,2k-1,n-1}}``.
    """
    if n <= 3:
        return [(0, n)]
    k = n // 2
    pieces = [(2 * i, 2 * i + 2) for i in range(k)]
    if n % 2 == 1:
        start, _ = pieces[-1]
        pieces[-1] = (start, n)
    return pieces


def greedy_merging(
    xs: np.ndarray,
    *,
    height: int = 0,
    params: CostParams = DEFAULT_COST,
    sample: bool = False,
    sample_piece_threshold: int = 8,
) -> SegmentationResult:
    """Find a good piecewise-linear segmentation of ``xs`` (Algorithm 3).

    Args:
        xs: Sorted, strictly increasing 1-D array of keys or bounds.
        height: Tree height of the level being laid out (0 = leaves);
            enters the cost model through the ``rho**h`` damping.
        params: Cost-model constants, including the fanout cap ``omega``.
        sample: Apply the Appendix A.7 sampling strategy -- pieces larger
            than ``sample_piece_threshold`` fit their final model on every
            second element, halving fit work with little layout change.
        sample_piece_threshold: Piece size above which sampling kicks in.

    Returns:
        The segmentation with the smallest estimated accumulated search
        cost among all piece counts visited by the merge schedule.
    """
    xs = np.asarray(xs, dtype=np.float64)
    n = len(xs)
    if n == 0:
        return SegmentationResult(segments=[], cost=0.0)
    ys = np.arange(n, dtype=np.float64)
    if n <= 3:  # a single initial piece (see _initial_pieces)
        seg = _fit_segment(xs, ys, 0, n, sample, sample_piece_threshold)
        return SegmentationResult(segments=[seg], cost=0.0, cost_curve={1: 0.0})
    k0 = n // 2
    # The merge loop's state dies with _merge_order, before the cost
    # curve and the final fits allocate theirs.
    wle_trace, removed_boundaries = _merge_order(xs, ys, k0, params)
    cost_curve = _cost_curve(n, k0, wle_trace, height, params)
    del wle_trace
    best_k = min(cost_curve, key=lambda kk: (cost_curve[kk], kk))
    segments = _reconstruct(
        xs, ys, removed_boundaries[:k0 - best_k], sample,
        sample_piece_threshold,
    )
    return SegmentationResult(
        segments=segments, cost=cost_curve[best_k], cost_curve=cost_curve
    )


def _merge_order(
    xs: np.ndarray, ys: np.ndarray, k: int, params: CostParams
) -> tuple[list[float], list[int]]:
    """Run the merge loop over the ``k`` initial pieces.

    Returns ``(wle_trace, removed_boundaries)``: the total weighted log
    error after each merge (entry 0 before any), and the start index of
    the piece each merge absorbed, in merge order.  Initial piece ``i``
    starts at ``2i``; the last one also takes the leftover element when
    ``len(xs)`` is odd.
    """
    n = len(xs)
    # The merge loop runs O(n) times, so per-piece state lives in one
    # tuple per piece -- (n, mean_x, mean_y, sxx, syy, sxy, sse, wle) --
    # with the SegmentStats / sse / weighted-log-error math inlined
    # (Chan et al. pairwise updates; wle = n * log2(rmse + 1) is T_ea's
    # per-piece error proxy).  The arithmetic replicates the
    # SegmentStats operation order exactly, keeping the merge schedule
    # (and therefore the produced tree) bit-identical to the object
    # version while dropping its allocation and call overhead.
    #
    # Transient memory is the other budget (it is nearly all of bulk
    # load's).  A Python float in a list costs 32 bytes against 8 in a
    # numpy array, so the two-point pieces keep their moments in arrays
    # and get their tuple only when the loop first reads them
    # (``piece``); an absorbed piece's tuple is dropped at once; and
    # the precomputed 2+2 candidates stay arrays.  The loop reads every
    # array through a memoryview, which boxes an element twice as fast
    # as ``ndarray.item``.
    even = k if n % 2 == 0 else k - 1  # pieces of exactly two
    x0 = xs[0:2 * even:2]
    x1 = xs[1:2 * even:2]
    y0 = ys[0:2 * even:2]
    y1 = ys[1:2 * even:2]
    half_dx = (x1 - x0) * 0.5
    half_dy = (y1 - y0) * 0.5
    mx_arr = (x0 + x1) * 0.5
    my_arr = (y0 + y1) * 0.5
    sxx_arr = 2.0 * half_dx * half_dx
    syy_arr = 2.0 * half_dy * half_dy
    sxy_arr = 2.0 * half_dx * half_dy
    del x0, x1, y0, y1, half_dx, half_dy
    # sse = syy - sxy^2/sxx, clamped at zero.  Keys strictly increase so
    # sxx > 0 almost always, but sub-ulp spacing can underflow it to 0;
    # the scalar guard (`sxx <= 0 -> sse = 0`) is replicated by masking,
    # since np.maximum would propagate the 0/0 NaN instead of clamping.
    with np.errstate(invalid="ignore", divide="ignore"):
        sse_arr = syy_arr - (sxy_arr * sxy_arr) / sxx_arr
    np.maximum(sse_arr, 0.0, out=sse_arr)
    sse_arr[sxx_arr <= 0.0] = 0.0

    log2 = math.log2
    sqrt = math.sqrt
    # log2(sqrt(0) + 1) is exactly 0; two-point pieces fit their line
    # perfectly, so the clamp above makes zero the common case.
    wle_l = [
        0.0 if v == 0.0 else 2 * log2(sqrt(v / 2) + 1.0)
        for v in sse_arr.tolist()
    ]
    total_wle = 0.0
    for w in wle_l:
        total_wle += w
    wle_v = memoryview(np.array(wle_l))
    del wle_l
    mx_v, my_v, sxx_v, syy_v, sxy_v, sse_v = map(
        memoryview, (mx_arr, my_arr, sxx_arr, syy_arr, sxy_arr, sse_arr)
    )

    def piece(i: int) -> tuple:
        """Materialise the state tuple of two-point piece ``i``."""
        st[i] = state = (2, mx_v[i], my_v[i], sxx_v[i], syy_v[i],
                         sxy_v[i], sse_v[i], wle_v[i])
        return state

    st: list = [None] * k
    if even != k:
        tail_start = 2 * even
        tail = SegmentStats.from_arrays(xs[tail_start:], ys[tail_start:])
        tail_sse = tail.sse()
        tail_wle = tail.n * log2(sqrt(tail_sse / tail.n) + 1.0)
        total_wle += tail_wle
        st[k - 1] = (tail.n, tail.mean_x, tail.mean_y, tail.sxx, tail.syy,
                     tail.sxy, tail_sse, tail_wle)

    nxt = list(range(1, k)) + [-1]
    prv = [-1] + list(range(k - 1))
    version = [0] * k

    max_piece = 2 * params.omega
    k_min = max(1, math.ceil(n / params.omega))

    # Candidate entries carry the exact (i, j, version_i, version_j) they
    # were computed for; any later merge touching i or j bumps a version
    # and invalidates the entry (lazy deletion; absorbing a piece also
    # bumps its version, which marks it dead).
    #
    # The initial candidates (all adjacent pairs, scored vectorised) are
    # not heapified: they are consumed in one sorted pass, with only the
    # candidates created by merges going through a heap.  Every initial
    # entry is (delta, i, i+1, 0, 0), so a stable argsort on delta orders
    # them exactly as tuple comparison would, and popping the smaller of
    # the sorted head and the heap top reproduces the single-heap pop
    # order (all entries are distinct, so the order is strict).
    init_d = np.empty(0)
    if even >= 2 and 4 <= max_piece:
        dx = np.diff(mx_arr)
        dy = np.diff(my_arr)
        # w = n_i*n_j/(n_i+n_j) = 1.0 for two two-point pieces, so the
        # cross terms are exactly dx*dx etc.
        m_sxx = sxx_arr[:-1] + sxx_arr[1:] + dx * dx * 1.0
        m_syy = syy_arr[:-1] + syy_arr[1:] + dy * dy * 1.0
        m_sxy = sxy_arr[:-1] + sxy_arr[1:] + dx * dy * 1.0
        with np.errstate(invalid="ignore", divide="ignore"):
            m_sse = m_syy - (m_sxy * m_sxy) / m_sxx
        np.maximum(m_sse, 0.0, out=m_sse)
        m_sse[m_sxx <= 0.0] = 0.0
        init_d = m_sse - sse_arr[:-1] - sse_arr[1:]
        # Merged means and moments of every 2+2 candidate, precomputed
        # with the same operations the scalar merge body would run, so a
        # still-valid initial merge can skip its moment math entirely.
        mxm_v, mym_v, m_sxx_v, m_syy_v, m_sxy_v, m_sse_v = map(
            memoryview,
            (mx_arr[:-1] + dx * 2 / 4, my_arr[:-1] + dy * 2 / 4,
             m_sxx, m_syy, m_sxy, m_sse),
        )
        del dx, dy
    if even != k and k >= 2:
        # Initial candidate between the last two pieces (two-point piece
        # and the three-point tail), scored like the inline pushes below.
        # Its position in init_d is even-1 == k-2, so position == i holds
        # for every initial candidate.
        na, mxa, mya, sxxa, syya, sxya, ssea, _wa = piece(even - 1)
        nb, mxb, myb, sxxb, syyb, sxyb, sseb, _wb = st[k - 1]
        nm0 = na + nb
        if nm0 <= max_piece:
            dx0 = mxb - mxa
            dy0 = myb - mya
            w0 = na * nb / nm0
            sxx0 = sxxa + sxxb + dx0 * dx0 * w0
            if nm0 < 2 or sxx0 <= 0.0:
                sse0 = 0.0
            else:
                syy0 = syya + syyb + dy0 * dy0 * w0
                sxy0 = sxya + sxyb + dx0 * dy0 * w0
                sse0 = syy0 - (sxy0 * sxy0) / sxx0
                if sse0 <= 0.0:
                    sse0 = 0.0
            init_d = np.append(init_d, sse0 - ssea - sseb)
    init_order = memoryview(np.argsort(init_d, kind="stable"))
    init_d = memoryview(init_d)
    n_init = len(init_order)
    ptr = 0
    heap: list[tuple[float, int, int, int, int]] = []

    # The cost of every visited piece count only depends on (k, total_wle)
    # and never feeds back into the merge order, so record total_wle per
    # merge and evaluate the cost curve after the loop.
    wle_trace = [total_wle]
    removed_boundaries: list[int] = []  # start index of the absorbed piece
    trace_append = wle_trace.append
    removed_append = removed_boundaries.append
    heappop = heapq.heappop
    heappush = heapq.heappush

    if n_init:
        ii = init_order[0]
        d0 = init_d[ii]
    while k > k_min:
        if ptr < n_init:
            if heap:
                h0 = heap[0]
                hd = h0[0]
                if d0 < hd:
                    use_init = True
                elif d0 > hd:
                    use_init = False
                else:
                    # Delta tie: compare (i, j) lexicographically.  On a
                    # full (delta, i, j) tie the initial entry wins -- its
                    # versions are (0, 0) and a pushed duplicate carries
                    # at least one bumped version.
                    i2 = h0[1]
                    use_init = ii < i2 or (ii == i2 and ii + 1 <= h0[2])
            else:
                use_init = True
        elif heap:
            use_init = False
        else:
            break
        fast = False
        if use_init:
            i = ii
            j = ii + 1
            ptr += 1
            if ptr < n_init:
                ii = init_order[ptr]
                d0 = init_d[ii]
            if version[i] or version[j]:
                continue
            if j < even:
                # Valid 2+2 merge: both pieces untouched, so the merged
                # moments precomputed above still apply verbatim.
                nm = 4
                mxm = mxm_v[i]
                mym = mym_v[i]
                sxx = m_sxx_v[i]
                syy = m_syy_v[i]
                sxy = m_sxy_v[i]
                sse = m_sse_v[i]
                wle = 0.0 if sse == 0.0 else 4 * log2(sqrt(sse / 4) + 1.0)
                total_wle -= wle_v[i] + wle_v[j]
                total_wle += wle
                st[i] = (4, mxm, mym, sxx, syy, sxy, sse, wle)
                fast = True
        else:
            delta, i, j, vi, vj = heappop(heap)
            if version[i] != vi or version[j] != vj or nxt[i] != j:
                continue
        if not fast:
            ni, mxi, myi, sxxi, syyi, sxyi, ssei, wlei = st[i] or piece(i)
            nj, mxj, myj, sxxj, syyj, sxyj, ssej, wlej = st[j] or piece(j)
            nm = ni + nj
            # No size re-check: every candidate was pushed only after a
            # <= max_piece test and matching versions mean the sizes have
            # not changed since.
            # Merge piece j into piece i (pairwise moment update).
            dx = mxj - mxi
            dy = myj - myi
            w = ni * nj / nm
            sxx = sxxi + sxxj + dx * dx * w
            syy = syyi + syyj + dy * dy * w
            sxy = sxyi + sxyj + dx * dy * w
            if nm < 2 or sxx <= 0.0:
                sse = 0.0
            else:
                sse = syy - (sxy * sxy) / sxx
                if sse <= 0.0:
                    sse = 0.0
            wle = 0.0 if sse == 0.0 else nm * log2(sqrt(sse / nm) + 1.0)
            total_wle -= wlei + wlej
            total_wle += wle
            mxm = mxi + dx * nj / nm
            mym = myi + dy * nj / nm
            st[i] = (nm, mxm, mym, sxx, syy, sxy, sse, wle)
        st[j] = None
        removed_append(2 * j)
        j2 = nxt[j]
        nxt[i] = j2
        if j2 != -1:
            prv[j2] = i
        version[j] += 1  # absorbed: invalidates every entry naming j
        vi = version[i] + 1
        version[i] = vi
        k -= 1
        trace_append(total_wle)
        # Re-score (i, nxt[i]) then (prv[i], i), exactly as two
        # push_candidate calls would.
        if j2 != -1:
            nb, mxb, myb, sxxb, syyb, sxyb, sseb, _wb = st[j2] or piece(j2)
            nmc = nm + nb
            if nmc <= max_piece:
                dxc = mxb - mxm
                dyc = myb - mym
                wc = nm * nb / nmc
                sxxc = sxx + sxxb + dxc * dxc * wc
                if nmc < 2 or sxxc <= 0.0:
                    ssec = 0.0
                else:
                    syyc = syy + syyb + dyc * dyc * wc
                    sxyc = sxy + sxyb + dxc * dyc * wc
                    ssec = syyc - (sxyc * sxyc) / sxxc
                    if ssec <= 0.0:
                        ssec = 0.0
                heappush(heap, (ssec - sse - sseb, i, j2, vi, version[j2]))
        p = prv[i]
        if p != -1:
            na, mxa, mya, sxxa, syya, sxya, ssea, _wa = st[p] or piece(p)
            nmc = na + nm
            if nmc <= max_piece:
                dxc = mxm - mxa
                dyc = mym - mya
                wc = na * nm / nmc
                sxxc = sxxa + sxx + dxc * dxc * wc
                if nmc < 2 or sxxc <= 0.0:
                    ssec = 0.0
                else:
                    syyc = syya + syy + dyc * dyc * wc
                    sxyc = sxya + sxy + dxc * dyc * wc
                    ssec = syyc - (sxyc * sxyc) / sxxc
                    if ssec <= 0.0:
                        ssec = 0.0
                heappush(heap, (ssec - ssea - sse, p, i, version[p], vi))
    return wle_trace, removed_boundaries


def _cost_curve(
    n: int,
    k0: int,
    wle_trace: list[float],
    height: int,
    params: CostParams,
) -> dict[int, float]:
    """Evaluate Eq. 7 for every visited piece count in one tight loop.

    ``wle_trace[m]`` is the total weighted log error after ``m`` merges,
    i.e. at piece count ``k0 - m``.  Inlines :func:`accumulated_cost` /
    :func:`~repro.core.cost.estimated_depth` with hoisted constants,
    replicating their operation order so the returned floats are
    bit-identical to calling them per merge.
    """
    c = params.cycles
    rho = params.rho
    base = c.cache_miss + c.linear_model
    unit = c.exp_search_step + c.cache_miss
    log_n = math.log(n) if n > 1 else 0.0
    # delta never exceeds log2(n)+1 once fanout > 1; the fanout<=1 branch
    # uses delta=n but only at the (never-visited) degenerate k=n.
    max_h = int(math.log2(n)) + 2 if n > 1 else 2
    rho_pow = [rho ** h for h in range(height, max_h + 1)]
    m_count = len(wle_trace)
    mle_arr = np.asarray(wle_trace) / n
    local_arr = mle_arr * unit
    # Estimated depths stay scalar: math.log and np.log can differ in the
    # last ulp, and delta feeds a ceil().
    log = math.log
    ceil = math.ceil
    deltas = [1.0] * m_count
    cds = np.empty(m_count, dtype=np.int64)
    for m in range(m_count):
        k = k0 - m
        if k <= 1 or n <= 1:
            delta = 1.0
        else:
            fanout = n / k
            if fanout <= 1.0:
                delta = float(n)
            else:
                delta = log_n / log(fanout)
        deltas[m] = delta
        cds[m] = ceil(delta)
    deltas_arr = np.asarray(deltas)
    # Group the piece counts by ceil(delta): within a group every k sums
    # the same h' terms, so the whole group evaluates with one vector op
    # per level.  All h' below ceil(delta) have weight clamped to exactly
    # 1.0 and the final level's weight is delta + 1 - h' elementwise --
    # the same operations, in the same order, as the scalar loop.
    out = np.zeros(m_count)
    for cd_val in np.unique(cds):
        cd = int(cd_val)
        idx = np.flatnonzero(cds == cd)
        if cd > max_h:  # degenerate fanout<=1 tail: don't inline
            for m in idx.tolist():
                out[m] = accumulated_cost(n, k0 - m, float(mle_arr[m]),
                                          height, params)
            continue
        loc = local_arr[idx]
        tot = np.zeros(len(idx))
        for h_prime in range(height, cd + 1):
            term = base + rho_pow[h_prime - height] * loc
            if h_prime == cd:
                term = ((deltas_arr[idx] + 1.0) - cd) * term
            tot += term
        out[idx] = tot
    return dict(zip(range(k0, k0 - m_count, -1), out.tolist()))


def _reconstruct(
    xs: np.ndarray,
    ys: np.ndarray,
    removed_boundaries: list[int],
    sample: bool,
    sample_piece_threshold: int,
) -> list[Segment]:
    """Rebuild the piece list left after the first merges, whose
    absorbed boundaries are ``removed_boundaries``."""
    n = len(xs)
    boundary_set = {start for start, _ in _initial_pieces(n)}
    boundary_set.difference_update(removed_boundaries)
    starts = sorted(boundary_set)
    del boundary_set
    segments = []
    for idx, start in enumerate(starts):
        end = starts[idx + 1] if idx + 1 < len(starts) else n
        segments.append(
            _fit_segment(xs, ys, start, end, sample, sample_piece_threshold)
        )
    return segments


def _fit_segment(
    xs: np.ndarray,
    ys: np.ndarray,
    start: int,
    end: int,
    sample: bool,
    sample_piece_threshold: int,
) -> Segment:
    """Fit the final model of one piece, optionally on a half sample."""
    px = xs[start:end]
    py = ys[start:end]
    if sample and len(px) > sample_piece_threshold:
        model = LinearModel.fit(px[::2], py[::2])
    else:
        model = LinearModel.fit(px, py)
    pred = model.intercept + model.slope * px
    err = pred - py
    rmse = float(np.sqrt(np.mean(err * err))) if len(px) else 0.0
    return Segment(start=start, end=end, model=model, rmse=rmse)
