#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <map>

namespace perf {
namespace {

/** 1-based nearest rank of percentile p among n samples; the epsilon
 *  keeps 99.9% of 10000 at rank 9990 despite binary rounding. */
double
nearestRank(double p, std::size_t n)
{
    return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles
quartiles(std::vector<double> v)
{
    if (v.empty())
        return {};
    if (v.size() == 1)
        return {v[0], v[0], v[0]};
    std::sort(v.begin(), v.end());
    // statistics.quantiles(method="exclusive"): cut point i of n sits at
    // position i*(len+1)/n, interpolated between its neighbours.
    const long len = static_cast<long>(v.size());
    const long m = len + 1;
    const long n = 4;
    double cut[3];
    for (long i = 1; i < n; ++i) {
        const long j = std::clamp(i * m / n, 1L, len - 1);
        const long delta = i * m - j * n;
        cut[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                          static_cast<double>(n - delta) +
                      v[static_cast<std::size_t>(j)] *
                          static_cast<double>(delta)) /
                     static_cast<double>(n);
    }
    return {cut[0], cut[1], cut[2]};
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = nearestRank(p, v.size());
    const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double
tailPercentile(std::size_t n)
{
    for (double p : {99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 70.0, 50.0}) {
        if (static_cast<double>(n) - nearestRank(p, n) >= 10.0)
            return p;
    }
    return 0.0;
}

double
predictedNsPerAccess(const std::vector<LayerCost> &layers)
{
    double sum = 0.0;
    for (const auto &l : layers)
        sum += l.ns_per_op * l.calls_per_access;
    return sum;
}

double
unattributedPct(double measured_ns, double predicted_ns)
{
    return measured_ns > 0.0
        ? 100.0 * (measured_ns - predicted_ns) / measured_ns : 0.0;
}

std::vector<double>
selfTimesNs(const std::vector<Span> &spans)
{
    std::map<int, std::vector<std::size_t>> children;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[spans[i].parent].push_back(i);

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
        if (const auto it = children.find(p.id); it != children.end()) {
            for (std::size_t k : it->second) {
                const Span &c = spans[k];
                const std::uint64_t lo = std::max(c.start_ns, p.start_ns);
                const std::uint64_t hi = std::min(c.end_ns, p.end_ns);
                if (hi > lo)
                    kids.emplace_back(lo, hi);
            }
        }
        std::sort(kids.begin(), kids.end());
        std::uint64_t covered = 0;
        std::uint64_t reach = p.start_ns;
        for (const auto &[lo, hi] : kids) {
            const std::uint64_t from = std::max(lo, reach);
            if (hi > from)
                covered += hi - from;
            reach = std::max(reach, hi);
        }
        self[i] = static_cast<double>(p.end_ns - p.start_ns - covered);
    }
    return self;
}

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Improved:
        return "improved";
      case Verdict::Same:
        return "same";
      case Verdict::Worse:
        return "worse";
      case Verdict::Unresolved:
        return "unresolved";
    }
    return "?";
}

Verdict
verdict(const std::vector<double> &parent, const std::vector<double> &change,
        bool lower_is_better, double bound)
{
    auto better = [&](double a, double b) {
        return lower_is_better ? a < b : a > b;
    };
    const Quartiles pq = quartiles(parent);
    const double pmed = median(parent);
    const double cmed = median(change);
    const double spread = pq.q3 - pq.q1;

    const std::size_t pairs = std::min(parent.size(), change.size());
    std::size_t wins = 0;
    for (std::size_t i = 0; i < pairs; ++i)
        wins += better(change[i], parent[i]) ? 1 : 0;
    if (pairs > 0 && 10 * wins >= 9 * pairs && better(cmed, pmed) &&
        std::fabs(cmed - pmed) > spread) {
        return Verdict::Improved;
    }

    if (pmed != 0.0 && spread / std::fabs(pmed) > bound) {
        bool all_better = !parent.empty() && !change.empty();
        for (double c : change)
            for (double p : parent)
                all_better = all_better && better(c, p);
        return all_better ? Verdict::Same : Verdict::Unresolved;
    }
    const double worsening = lower_is_better ? cmed - pmed : pmed - cmed;
    if (worsening > bound * std::fabs(pmed))
        return Verdict::Worse;
    return Verdict::Same;
}

} // namespace perf
