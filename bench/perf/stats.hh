/**
 * @file
 * Statistics used by the repository benchmark: sample summaries, the
 * tail-percentile rule, the layer reconciliation, span self time and the
 * parent-versus-change verdict (bench/perf/README.md).
 *
 * Pure functions over plain vectors so the unit test can pin each rule
 * with fixed inputs.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perf {

/** Median (mean of the two middle samples for an even count); 0 when
 *  empty. */
double median(std::vector<double> v);

/** First, second and third quartile. */
struct Quartiles
{
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};

/**
 * Quartiles as Python's `statistics.quantiles(v, n=4)` computes them
 * (the default "exclusive" method), so spreads printed here match the
 * ones a script computes from the same values.  One sample gives that
 * sample three times; empty gives zeros.
 */
Quartiles quartiles(std::vector<double> v);

/** Nearest-rank percentile, p in (0, 100]; 0 when empty. */
double percentile(std::vector<double> v, double p);

/**
 * The highest percentile worth reporting for `n` samples: the largest
 * of 99.9, 99, 98, 95, 90, 80, 70 and 50 whose nearest-rank sample has
 * at least ten samples above it.  0 when even the median has fewer.
 */
double tailPercentile(std::size_t n);

/** One layer's contribution to the cost of an access. */
struct LayerCost
{
    std::string name;
    double ns_per_op = 0.0;
    double calls_per_access = 0.0;
};

/** Sum over layers of ns/op times calls per access. */
double predictedNsPerAccess(const std::vector<LayerCost> &layers);

/** Share of `measured_ns` the layers leave unexplained, in percent
 *  (negative when they overshoot). */
double unattributedPct(double measured_ns, double predicted_ns);

/** One recorded span, on host nanoseconds. */
struct Span
{
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int id = 0;
    int parent = -1;      //!< Id of the causing span; -1 at the root.
    int workload = 0;     //!< Shared by every span of one cell.
    int tid = 0;          //!< Worker lane.
};

/**
 * Self time of every span: its duration minus the part of that interval
 * covered by its direct children (overlapping children count once,
 * parts outside the parent not at all).  Indexed like `spans`.
 */
std::vector<double> selfTimesNs(const std::vector<Span> &spans);

/** Outcome of comparing one metric between a parent and a change. */
enum class Verdict
{
    Improved,   //!< Wins >= 9/10 of pairs by more than the parent spread.
    Same,       //!< Not worse than the bound, not a resolved gain.
    Worse,      //!< Median worse than the parent's by more than the bound.
    Unresolved, //!< Parent spread exceeds the bound; cannot tell.
};

const char *verdictName(Verdict v);

/**
 * The regression rule for host measurements.  `parent` and `change`
 * are the runs of each side in pairing order; `bound` is the share of
 * the parent median the metric may worsen by.
 *
 *  - Improved: the change wins at least nine tenths of the pairs (ties
 *    count for neither side) and the medians differ by more than the
 *    parent's quartile spread.
 *  - Unresolved: otherwise, when the parent's quartile spread is wider
 *    than the bound, unless every change run beats every parent run.
 *  - Worse: otherwise, when the change median is worse than the parent
 *    median by more than the bound.
 *  - Same: everything else.
 */
Verdict verdict(const std::vector<double> &parent,
                const std::vector<double> &change, bool lower_is_better,
                double bound);

} // namespace perf
