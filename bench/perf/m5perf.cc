/**
 * @file
 * m5perf: one workload of the repository benchmark (bench/perf/README.md).
 *
 *   m5perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *          [--out DIR]
 *
 * Untraced (--trace 0) it times the workload's cells end to end; traced
 * (--trace 1) it runs them once, then alternates running each warmed-up
 * system on with replaying it stage by stage, to price every layer.
 * Every metric is printed as `<workload> <metric> <value> <unit>`; the
 * last stdout line is one JSON object {correct, attempted, failed,
 * metrics}.  The run's full record goes to DIR/results/<workload>.json
 * and, traced, its spans to DIR/trace/<workload>.events (run.sh
 * assembles both).
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "json.hh"
#include "replay.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "stats.hh"
#include "telemetry/prof.hh"

using namespace m5;
using perf::Span;

namespace {

/** One benchmark workload; see README.md for why each exists. */
struct WorkloadDef
{
    const char *name;
    const char *benchmark; //!< nullptr for the sweep.
    PolicyKind policy;
    double scale;
};

const WorkloadDef kWorkloads[] = {
    {"mcf-m5", "mcf_r", PolicyKind::M5HptDriven, 1.0 / 16},
    {"redis-m5", "redis", PolicyKind::M5HptDriven, 1.0 / 16},
    {"pr-damon", "pr", PolicyKind::Damon, 1.0 / 16},
    {"sweep", nullptr, PolicyKind::M5HptDriven, 1.0 / 64},
};

/** Policies of the sweep, `none` first as the normalization baseline. */
const std::vector<PolicyKind> kSweepPolicies = {
    PolicyKind::None, PolicyKind::Damon, PolicyKind::M5HptDriven};

constexpr int kSetupRepeats = 9;
constexpr std::size_t kReplayBatch = 4096;
constexpr std::uint64_t kReplayEvents = 1ULL << 21;
constexpr int kReplayChunks = 8;
constexpr unsigned kSweepMaxWorkers = 4;
constexpr double kPaperM5Speedup = 2.06;      // Figure 9, M5 geomean.
constexpr double kMeasuredM5Speedup = 1.36;   // EXPERIMENTS.md, 1/64.

struct Options
{
    const WorkloadDef *workload = nullptr;
    std::uint64_t seed = 7;
    std::uint64_t seconds = 10;
    bool trace = false;
    std::string out = "build-perf";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "m5perf: %s\nusage: m5perf --workload "
                 "mcf-m5|redis-m5|pr-damon|sweep [--seed N] [--seconds S] "
                 "[--trace 0|1] [--out DIR]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string val = argv[++i];
        auto number = [&](std::uint64_t lo) {
            const auto v = parseU64(val);
            if (!v || *v < lo)
                usage("bad value for " + flag + ": '" + val + "'");
            return *v;
        };
        if (flag == "--workload") {
            for (const auto &w : kWorkloads)
                if (val == w.name)
                    o.workload = &w;
            if (!o.workload)
                usage("unknown workload '" + val + "'");
        } else if (flag == "--seed") {
            o.seed = number(0);
        } else if (flag == "--seconds") {
            o.seconds = number(1);
        } else if (flag == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1, got '" + val + "'");
            o.trace = val == "1";
        } else if (flag == "--out") {
            o.out = val;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!o.workload)
        usage("--workload is required");
    return o;
}

/** The workload's cells under `policy` (ignored by the sweep), with
 *  the seed reaching every expanded job's config. */
std::vector<SweepJob>
cellsOf(const WorkloadDef &w, std::uint64_t seed, PolicyKind policy)
{
    if (!w.benchmark)
        return evaluationGrid(kSweepPolicies, w.scale)
            .seedList({seed})
            .expand();
    return SweepGrid()
        .benchmark(w.benchmark)
        .policy(policy)
        .scale(w.scale)
        .seedList({seed})
        .expand();
}

/** The cell whose construction setup_s times: the workload's own cell,
 *  or the sweep's largest-footprint M5 cell. */
SweepJob
setupCell(const WorkloadDef &w, const std::vector<SweepJob> &cells)
{
    const SweepJob *best = nullptr;
    std::size_t pages = 0;
    for (const auto &c : cells) {
        const std::size_t p =
            benchmarkParams(c.benchmark, c.config.scale).footprint_pages;
        if (c.policy == w.policy && p > pages) {
            best = &c;
            pages = p;
        }
    }
    return *best;
}

unsigned
workersOf(const WorkloadDef &w)
{
    if (w.benchmark)
        return 1;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(kSweepMaxWorkers, hw);
}

/** A small dense id for the calling thread: its trace lane. */
int
workerLane()
{
    static std::atomic<int> next{1};
    thread_local int lane = next++;
    return lane;
}

std::string
digestOf(const std::vector<std::string> &rows)
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a
    for (const auto &row : rows) {
        for (unsigned char c : row) {
            h ^= c;
            h *= 1099511628211ULL;
        }
        h ^= '\n';
        h *= 1099511628211ULL;
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Output checks: each is attempted once and may fail. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "m5perf: check failed: %s\n", what.c_str());
        }
    }
};

/** Real-loop time and counts of the steady continuation a replay is
 *  checked against: the same system, run on for as many accesses as the
 *  replay replays, in alternating chunks. */
struct Steady
{
    double ns = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t tlb_misses = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t wakes = 0;
    std::uint64_t agings = 0;
};

/** Everything one cell produced. */
struct Cell
{
    RunResult r;
    std::string row; //!< runResultCsvRow, joined.
    double setup_ns = 0.0;
    double run_ns = 0.0;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t snooped = 0;
    std::uint64_t wakes = 0;
    //! Output checks evaluated inside the cell: (passed, description).
    std::vector<std::pair<bool, std::string>> checks;
    Steady steady;
    perf::ReplayStats replay;
    std::vector<Span> spans;
};

std::uint64_t
counterOr0(const StatRegistry &reg, const std::string &name)
{
    return reg.has(name) ? reg.counter(name) : 0;
}

/** Policy-daemon wakes so far: M5 manager wakeups or DAMON samples. */
std::uint64_t
wakesOf(const StatRegistry &reg)
{
    return counterOr0(reg, "m5.manager.wakeups") +
           counterOr0(reg, "os.damon.samples");
}

Cell
runCell(const SweepJob &job, int cell_id, const std::string &workload,
        std::uint64_t replay_events)
{
    Cell c;
    perf::SpanLog log(cell_id, workerLane());
    c.begin_ns = ProfClock::nowNs();
    const int cell_span = log.begin(job.label(), -1);
    const int setup_span = log.begin("setup", cell_span);
    TieredSystem sys(job.config);
    log.end(setup_span);
    const int run_span = log.begin("run", cell_span);
    c.r = sys.run(job.budget);
    log.end(run_span);
    const Span &s = log.spans()[static_cast<std::size_t>(setup_span)];
    const Span &r = log.spans()[static_cast<std::size_t>(run_span)];
    c.setup_ns = static_cast<double>(s.end_ns - s.start_ns);
    c.run_ns = static_cast<double>(r.end_ns - r.start_ns);

    std::string row;
    for (const auto &f : runResultCsvRow(job, c.r))
        row += f + ",";
    c.row = row;

    const StatRegistry &reg = sys.stats();
    c.snooped = counterOr0(reg, "cxl.ctrl.snooped");
    c.wakes = wakesOf(reg);

    const std::string at = job.label() + ": ";
    const NodeId top = sys.topology().top();
    c.checks.emplace_back(
        c.r.accesses == job.budget &&
            c.r.tlb.hits + c.r.tlb.misses == job.budget,
        at + "retired accesses equal the budget");
    c.checks.emplace_back(c.r.llc.hits + c.r.llc.misses == c.r.accesses,
                          at + "llc.hits + llc.misses == accesses");
    c.checks.emplace_back(
        c.r.steady_ddr_read_bytes + c.r.steady_cxl_read_bytes > 0,
        at + "steady DDR + CXL read bytes > 0");
    if (job.policy != PolicyKind::None) {
        c.checks.emplace_back(c.r.migration.promoted >= 1,
                              at + "the policy promoted a page");
    }
    c.checks.emplace_back(sys.pageTable().pagesOnNode(top) <=
                              sys.memory().tier(top).framesTotal(),
                          at + "DDR frames in use <= DDR capacity");

    if (replay_events) {
        // Alternate the real loop, run on in chunks (the steady
        // continuation the replay is checked against), with the replay
        // of as many accesses, so both see the host in the same state.
        // The replay also calls the system's LLC and daemon, so counts
        // are taken around each real chunk only; every event besides a
        // daemon wake is an MGLRU aging for these configurations.
        perf::Replayer replayer(sys, log, kReplayBatch);
        const std::uint64_t chunk = replay_events / kReplayChunks;
        Steady &d = c.steady;
        std::uint64_t tlb_misses = c.r.tlb.misses;
        for (int k = 0; k < kReplayChunks; ++k) {
            const CacheStats llc0 = sys.llc().stats();
            const std::uint64_t wakes0 = wakesOf(reg);
            const std::uint64_t events0 = reg.counter("sim.events.executed");
            const int steady_span = log.begin("run.steady", cell_span);
            const RunResult r2 = sys.run(chunk);
            log.end(steady_span);
            const Span &st =
                log.spans()[static_cast<std::size_t>(steady_span)];
            d.ns += static_cast<double>(st.end_ns - st.start_ns);
            d.accesses += chunk;
            d.tlb_misses += r2.tlb.misses - tlb_misses;
            tlb_misses = r2.tlb.misses;
            d.llc_misses += r2.llc.misses - llc0.misses;
            d.writebacks += r2.llc.writebacks - llc0.writebacks;
            const std::uint64_t wakes = wakesOf(reg) - wakes0;
            d.wakes += wakes;
            d.agings += reg.counter("sim.events.executed") - events0 - wakes;

            const int span = log.begin("replay." + workload, cell_span);
            replayer.run(chunk, span);
            log.end(span);
        }
        const int span = log.begin("replay.cxl", cell_span);
        c.replay = replayer.finish(span);
        log.end(span);
    }
    log.end(cell_span);
    c.end_ns = ProfClock::nowNs();
    if (replay_events)
        c.spans = log.spans();
    return c;
}

/** Run the cells on the runner; failed cells come back empty. */
std::vector<std::optional<Cell>>
runCells(const WorkloadDef &w, const std::vector<SweepJob> &jobs,
         std::uint64_t replay_events, Checks &checks, double &wall_ns)
{
    const ExperimentRunner runner(
        {.jobs = workersOf(w), .progress = 0, .name = w.name});
    const std::string name = w.name;
    const std::uint64_t t0 = ProfClock::nowNs();
    auto outs = runner.map(jobs, [&](const SweepJob &job) {
        return runCell(job, static_cast<int>(job.index), name,
                       replay_events);
    });
    wall_ns = static_cast<double>(ProfClock::nowNs() - t0);
    std::vector<std::optional<Cell>> cells;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        checks.expect(outs[i].ok, jobs[i].label() + " returned ok (" +
                                      outs[i].error + ")");
        if (!outs[i].ok) {
            cells.emplace_back();
            continue;
        }
        for (const auto &[ok, what] : outs[i].value.checks)
            checks.expect(ok, what);
        cells.emplace_back(std::move(outs[i].value));
    }
    return cells;
}

/** Append the host times of `n` constructions of `job`'s system. */
void
timeSetups(const SweepJob &job, int n, std::vector<double> &ns)
{
    for (int i = 0; i < n; ++i) {
        const std::uint64_t t0 = ProfClock::nowNs();
        const TieredSystem sys(job.config);
        ns.push_back(static_cast<double>(ProfClock::nowNs() - t0));
    }
}

/** A reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    bool exact = false; //!< Deterministic for a given seed.
};

double
geomeanOf(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : geomean(v);
}

/** Fig 9's score of `run` against `base` (Redis by inverse p99). */
double
speedupOf(const RunResult &base, const RunResult &run)
{
    return normalizedPerformance(base.steady_throughput,
                                 run.steady_throughput, base.p99_request,
                                 run.p99_request, run.benchmark == "redis");
}

/** Collects metrics and writes every output of one run. */
class Report
{
  public:
    explicit Report(const Options &o) : o_(o) {}

    /** A metric BENCHMARK.json lists for this run's mode. */
    void
    metric(const std::string &name, double value, const std::string &unit,
           bool exact = false)
    {
        metrics_.push_back({name, value, unit, exact});
    }

    /** A supporting number: printed and recorded, not a gated metric. */
    void
    extra(const std::string &name, double value, const std::string &unit)
    {
        extras_.push_back({name, value, unit});
    }

    /** The FNV-1a digest of every cell's runResultCsvRow. */
    void digest(const std::string &d) { digest_ = d; }

    void
    finish(const Checks &checks)
    {
        const char *w = o_.workload->name;
        for (const auto *list : {&metrics_, &extras_})
            for (const auto &m : *list)
                std::printf("%s %s %.10g %s\n", w, m.name.c_str(), m.value,
                            m.unit.c_str());
        if (!digest_.empty())
            std::printf("%s result_digest %s\n", w, digest_.c_str());
        const double frac = checks.attempted
            ? static_cast<double>(checks.failed) /
              static_cast<double>(checks.attempted)
            : 0.0;
        std::printf("%s failed_frac %.10g frac\n", w, frac);

        auto metricsJson = [](const std::vector<Metric> &list, bool full) {
            std::string s = "{";
            for (const auto &m : list) {
                if (s.size() > 1)
                    s += ", ";
                s += perf::jsonQuote(m.name) + ": {\"value\": " +
                     perf::jsonNumber(m.value) +
                     ", \"unit\": " + perf::jsonQuote(m.unit);
                if (full && m.exact)
                    s += ", \"exact\": true";
                s += "}";
            }
            return s + "}";
        };
        const bool correct = checks.failed == 0;
        const std::string head =
            std::string("\"correct\": ") + (correct ? "true" : "false") +
            ", \"attempted\": " + std::to_string(checks.attempted) +
            ", \"failed\": " + std::to_string(checks.failed);

        std::filesystem::create_directories(o_.out + "/results");
        std::ofstream f(o_.out + "/results/" + w + ".json");
        f << "{\"workload\": " << perf::jsonQuote(w)
          << ", \"seed\": " << o_.seed << ", \"trace\": " << o_.trace
          << ", \"seconds\": " << o_.seconds
          << ", \"nproc\": " << std::thread::hardware_concurrency() << ", "
          << head << ", \"failed_frac\": " << perf::jsonNumber(frac)
          << ", \"metrics\": " << metricsJson(metrics_, true)
          << ", \"extra\": " << metricsJson(extras_, true)
          << ", \"result_digest\": " << perf::jsonQuote(digest_) << "}\n";

        std::printf("{%s, \"metrics\": %s}\n", head.c_str(),
                    metricsJson(metrics_, false).c_str());
        std::fflush(stdout);
    }

  private:
    const Options &o_;
    std::vector<Metric> metrics_;
    std::vector<Metric> extras_;
    std::string digest_;
};

/**
 * A fixed yardstick of host speed: a dependent chain of loads through a
 * 16 MB table interleaved with loads from 4 MB and 256 KB tables and
 * integer hashing, the resource mix of the simulator's access loop.
 * The host is shared and its speed drifts by tens of percent over
 * minutes; host times are scaled by this kernel's time measured next to
 * them, which cancels much of that drift and none of a change to the
 * simulator, with which it shares no code.  Returns host ns per op.
 */
double
yardstickNsPerOp()
{
    std::vector<std::uint64_t> big(1U << 21);
    std::vector<std::uint64_t> mid(1U << 19);
    std::vector<std::uint32_t> small(1U << 16);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (auto &v : big)
        v = next();
    for (auto &v : mid)
        v = next();
    for (auto &v : small)
        v = static_cast<std::uint32_t>(next());

    constexpr int kOps = 1'000'000;
    const std::uint64_t t0 = ProfClock::nowNs();
    std::uint64_t st = 0x5eed;
    std::uint64_t idx = 1;
    for (int i = 0; i < kOps; ++i) {
        st = st * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t h = st ^ (st >> 31);
        const std::uint32_t a = small[h & (small.size() - 1)];
        const std::uint64_t b = mid[((h >> 20) ^ a) & (mid.size() - 1)];
        const std::uint64_t c = big[(idx ^ b) & (big.size() - 1)];
        idx = (idx ^ c) * 0x9e3779b97f4a7c15ULL;
        idx ^= idx >> 29;
        if (c & 1)
            mid[(h >> 40) & (mid.size() - 1)] += a;
    }
    const double ns =
        static_cast<double>(ProfClock::nowNs() - t0) / kOps;
    return idx == 0 ? -ns : ns; // Keeps the chain observable.
}

/** One yardstick sample, taken in a child process pinned to the calling
 *  thread's CPU, so its tables never count toward this process's peak
 *  resident set. */
double
yardstickSample()
{
    int fds[2];
    if (pipe(fds) != 0)
        m5_fatal("yardstick: pipe failed");
    const int cpu = sched_getcpu();
    const pid_t pid = fork();
    if (pid < 0)
        m5_fatal("yardstick: fork failed");
    if (pid == 0) {
        close(fds[0]);
        if (cpu >= 0) {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(cpu, &set);
            (void)sched_setaffinity(0, sizeof set, &set);
        }
        const double ns = yardstickNsPerOp();
        const bool ok = write(fds[1], &ns, sizeof ns) == sizeof ns;
        _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    double ns = 0.0;
    const bool got = read(fds[0], &ns, sizeof ns) == sizeof ns;
    close(fds[0]);
    int status = 0;
    const bool reaped = waitpid(pid, &status, 0) == pid;
    if (!got || !reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        !(ns > 0.0))
        m5_fatal("yardstick: the sample process failed");
    return ns;
}

/** The yardstick's ns per op on the quiet 4-vCPU baseline host: host
 *  times are reported at that speed. */
constexpr double kYardstickNs = 150.0;

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Untraced run: end-to-end metrics.

void
runTimed(const Options &o, Report &rep, Checks &checks)
{
    const WorkloadDef &w = *o.workload;
    const std::vector<SweepJob> jobs = cellsOf(w, o.seed, w.policy);
    std::uint64_t accesses = 0;
    for (const auto &j : jobs)
        accesses += j.budget;

    // Every host time is scaled to the yardstick's speed measured next
    // to it; the unscaled medians are printed beside.
    std::vector<double> yard_ns;
    auto yard = [&] {
        yard_ns.push_back(yardstickSample());
        return yard_ns.back();
    };

    // Set-up is timed a third at a time at the start, the middle and the
    // end of the run, so a slow spell of the host skews few samples.
    const SweepJob setup = setupCell(w, jobs);
    std::vector<double> setup_ns;
    std::vector<double> setup_scaled;
    auto timeSetupThird = [&](int n) {
        const double y = yard();
        const std::size_t from = setup_ns.size();
        timeSetups(setup, n, setup_ns);
        for (std::size_t i = from; i < setup_ns.size(); ++i)
            setup_scaled.push_back(setup_ns[i] * kYardstickNs / y);
    };
    timeSetupThird(kSetupRepeats / 3);

    // A single cell's Fig 9 baseline, run before the timed passes so
    // that they all start with a warmed-up process.
    std::optional<Cell> baseline;
    if (w.benchmark) {
        double unused = 0.0;
        baseline = std::move(runCells(w, cellsOf(w, o.seed,
                                                  PolicyKind::None),
                                      0, checks, unused)[0]);
    }

    timeSetupThird(kSetupRepeats / 3);

    // Timed passes over the cells, as many as end within --seconds (at
    // least one); every pass must reproduce the first one's results.
    std::vector<double> ns_per_access;
    std::vector<double> scaled_ns_per_access;
    std::vector<std::optional<Cell>> first;
    std::string digest;
    const std::uint64_t t0 = ProfClock::nowNs();
    double yard_before = yard();
    do {
        double wall_ns = 0.0;
        auto cells = runCells(w, jobs, 0, checks, wall_ns);
        std::vector<std::string> rows;
        double run_ns = 0.0;
        for (const auto &c : cells) {
            rows.push_back(c ? c->row : "failed");
            run_ns += c ? c->run_ns : 0.0;
        }
        // A single cell is timed over its access loop; the sweep over
        // its whole wall time, construction and parallelism included.
        ns_per_access.push_back((w.benchmark ? run_ns : wall_ns) /
                                static_cast<double>(accesses));
        const double yard_after = yard();
        scaled_ns_per_access.push_back(ns_per_access.back() * kYardstickNs *
                                       2.0 / (yard_before + yard_after));
        yard_before = yard_after;
        const std::string d = digestOf(rows);
        if (digest.empty()) {
            digest = d;
            first = std::move(cells);
        } else {
            checks.expect(d == digest, "pass " +
                                           std::to_string(
                                               ns_per_access.size()) +
                                           " reproduces pass 1's results");
        }
    } while (static_cast<double>(ProfClock::nowNs() - t0) *
                 (1.0 + 1.0 / static_cast<double>(ns_per_access.size())) <=
             static_cast<double>(o.seconds) * 1e9);

    timeSetupThird(kSetupRepeats - 2 * (kSetupRepeats / 3));

    // Simulated results: the policy against no migration, Fig 9 style.
    std::vector<double> speedups;
    std::vector<double> damon_speedups;
    std::vector<double> mops;
    std::optional<double> p99_us;
    if (w.benchmark) {
        if (baseline && first[0])
            speedups.push_back(speedupOf(baseline->r, first[0]->r));
        if (first[0]) {
            mops.push_back(first[0]->r.steady_throughput / 1e6);
            if (first[0]->r.p99_request > 0)
                p99_us = first[0]->r.p99_request / 1e3;
        }
    } else {
        const std::size_t np = kSweepPolicies.size();
        for (std::size_t b = 0; b + np <= first.size(); b += np) {
            const auto &none = first[b];
            const auto &damon = first[b + 1];
            const auto &m5 = first[b + 2];
            if (none && m5)
                speedups.push_back(speedupOf(none->r, m5->r));
            if (none && damon)
                damon_speedups.push_back(speedupOf(none->r, damon->r));
            if (m5 && m5->r.p99_request > 0)
                p99_us = m5->r.p99_request / 1e3;
        }
        for (const auto &c : first)
            if (c)
                mops.push_back(c->r.steady_throughput / 1e6);
    }

    const perf::Quartiles q = perf::quartiles(scaled_ns_per_access);
    rep.metric("host_ns_per_access", perf::median(scaled_ns_per_access),
               "ns");
    rep.metric("setup_s", perf::median(setup_scaled) / 1e9, "s");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.metric("sim_steady_mops", geomeanOf(mops), "Maccess/s", true);
    rep.metric("sim_speedup", geomeanOf(speedups), "x", true);
    rep.extra("host_ns_per_access.q1", q.q1, "ns");
    rep.extra("host_ns_per_access.q3", q.q3, "ns");
    rep.extra("host_ns_per_access.unscaled", perf::median(ns_per_access),
              "ns");
    rep.extra("setup_s.unscaled", perf::median(setup_ns) / 1e9, "s");
    rep.extra("yardstick_ns", perf::median(yard_ns), "ns");
    rep.extra("host_ns_per_access.passes",
              static_cast<double>(ns_per_access.size()), "count");
    rep.extra("accesses_per_pass", static_cast<double>(accesses), "count");
    if (p99_us)
        rep.extra("sim_p99_request_us", *p99_us, "us");
    if (!w.benchmark) {
        rep.extra("sim_damon_speedup", geomeanOf(damon_speedups), "x");
        rep.extra("paper_m5_speedup", kPaperM5Speedup, "x");
        rep.extra("experiments_md_m5_speedup", kMeasuredM5Speedup, "x");
    }
    rep.digest(digest);
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics.

/** Replay stages reported as per-layer metrics: the metric, the unit
 *  its median is reported in, and ns per reported unit. */
struct LayerDef
{
    const char *stage;
    const char *metric;
    const char *unit;
    double ns_per_unit;
};

const LayerDef kLayers[] = {
    {"workloads.next", "workloads.next_ns", "ns", 1.0},
    {"cache.tlb_lookup", "cache.tlb_lookup_ns", "ns", 1.0},
    {"os.pt_walk", "os.pt_walk_ns", "ns", 1.0},
    {"cache.llc_access", "cache.llc_access_ns", "ns", 1.0},
    {"mem.access", "mem.access_ns", "ns", 1.0},
    {"os.lru_touch", "os.lru_touch_ns", "ns", 1.0},
    {"os.txn_note_write", "os.txn_note_write_ns", "ns", 1.0},
    {"os.daemon_wake", "os.daemon_wake_us", "us", 1e3},
    {"os.lru_age", "os.lru_age_us", "us", 1e3},
    {"cxl.observe", "cxl.observe_ns", "ns", 1.0},
    {"sketch.hpt_access", "sketch.hpt_access_ns", "ns", 1.0},
};

/** The interleaved replay's host time per access over the staged
 *  replay's: how much the staged timings undercount the real loop. */
double
overlapFactor(const perf::ReplayStats &r)
{
    if (!r.staged_ns || !r.interleaved_events)
        return 1.0;
    return (r.interleaved_ns / static_cast<double>(r.interleaved_events)) /
           (r.staged_ns / static_cast<double>(r.staged_events));
}

/**
 * The layers of one cell's real loop: each replay stage's mean staged
 * ns/op (access-path stages scaled by the overlap factor) and its calls
 * per access in the steady continuation.  The CXL-side layers run
 * inside mem.access and get no entry of their own; stores are not
 * counted by the simulator, so os.txn_note_write takes the replay's own
 * store share.
 */
std::vector<perf::LayerCost>
loopLayers(const Cell &c)
{
    const Steady &d = c.steady;
    const perf::ReplayStats &r = c.replay;
    auto per = [&](std::uint64_t n) {
        return static_cast<double>(n) / static_cast<double>(d.accesses);
    };
    const double overlap = overlapFactor(r);
    const std::pair<const char *, double> calls[] = {
        {"workloads.next", 1.0},
        {"cache.tlb_lookup", 1.0},
        {"os.pt_walk", per(d.tlb_misses)},
        {"cache.llc_access", 1.0},
        {"mem.access", per(d.llc_misses + d.writebacks)},
        {"os.lru_touch", per(d.llc_misses)},
        {"os.txn_note_write", static_cast<double>(r.note_writes) /
                                  static_cast<double>(r.events)},
        {"os.daemon_wake", per(d.wakes)},
        {"os.lru_age", per(d.agings)},
    };
    std::vector<perf::LayerCost> layers;
    for (const auto &[stage, k] : calls) {
        const auto it = r.total_calls.find(stage);
        if (it == r.total_calls.end())
            continue;
        const bool event = std::string(stage) == "os.daemon_wake" ||
                           std::string(stage) == "os.lru_age";
        const double mean =
            r.total_ns.at(stage) / static_cast<double>(it->second);
        layers.push_back({stage, event ? mean : mean * overlap, k});
    }
    return layers;
}

void
writeTraceEvents(const Options &o, const std::vector<Span> &spans)
{
    std::filesystem::create_directories(o.out + "/trace");
    std::ofstream f(o.out + "/trace/" + o.workload->name + ".events");
    const int pid = static_cast<int>(o.workload - kWorkloads) + 1;
    f << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
      << ", \"args\": {\"name\": " << perf::jsonQuote(o.workload->name)
      << "}}";
    char buf[64];
    for (const Span &s : spans) {
        std::snprintf(buf, sizeof buf, "%.3f, \"dur\": %.3f",
                      static_cast<double>(s.start_ns) / 1e3,
                      static_cast<double>(s.end_ns - s.start_ns) / 1e3);
        f << ",\n{\"name\": " << perf::jsonQuote(s.name)
          << ", \"ph\": \"X\", \"pid\": " << pid << ", \"tid\": " << s.tid
          << ", \"ts\": " << buf << ", \"args\": {\"span\": " << s.id
          << ", \"parent\": " << s.parent
          << ", \"workload\": " << s.workload << "}}";
    }
    f << "\n";
}

void
runTraced(const Options &o, Report &rep, Checks &checks)
{
    const WorkloadDef &w = *o.workload;
    const std::vector<SweepJob> jobs = cellsOf(w, o.seed, w.policy);

    // Set-up split: workload generation versus the rest of construction,
    // measured in pairs (alternating which goes first) so host noise
    // hits both sides of each difference alike.
    const SweepJob setup = setupCell(w, jobs);
    std::vector<double> make_ns, other_ns;
    for (int i = 0; i < kSetupRepeats; ++i) {
        double make = 0.0, construct = 0.0;
        for (int k = 0; k < 2; ++k) {
            const std::uint64_t t0 = ProfClock::nowNs();
            if ((i + k) % 2 == 0) {
                const auto wl = makeMultiWorkload(
                    setup.benchmark, setup.config.instances,
                    setup.config.scale, setup.config.seed);
                make = static_cast<double>(ProfClock::nowNs() - t0);
            } else {
                const TieredSystem sys(setup.config);
                construct = static_cast<double>(ProfClock::nowNs() - t0);
            }
        }
        make_ns.push_back(make);
        other_ns.push_back(construct - make);
    }

    const std::uint64_t replay_events =
        w.benchmark ? kReplayEvents : kReplayEvents / 32;
    double wall_ns = 0.0;
    const auto cells = runCells(w, jobs, replay_events, checks, wall_ns);

    std::map<std::string, std::vector<double>> samples;
    std::vector<double> cell_wall_s;
    double span_ns = 0.0, staged_batch_ns = 0.0;
    double busy_ns = 0.0;
    double predicted_ns = 0.0;
    double measured_ns = 0.0;
    double steady_accesses = 0.0;
    double staged_ns = 0.0, staged_events = 0.0;
    double interleaved_ns = 0.0, interleaved_events = 0.0;
    RunResult sum;
    std::uint64_t snooped = 0, wakes = 0;
    std::vector<Span> spans;
    for (const auto &c : cells) {
        if (!c)
            continue;
        const int base = static_cast<int>(spans.size());
        for (Span s : c->spans) {
            s.id += base;
            s.parent = s.parent < 0 ? -1 : s.parent + base;
            spans.push_back(std::move(s));
        }
        for (const auto &[stage, v] : c->replay.ns_per_op)
            samples[stage].insert(samples[stage].end(), v.begin(), v.end());
        span_ns += c->replay.span_ns;
        staged_batch_ns += c->replay.staged_batch_ns;
        cell_wall_s.push_back((c->setup_ns + c->run_ns) / 1e9);
        busy_ns += static_cast<double>(c->end_ns - c->begin_ns);

        predicted_ns += perf::predictedNsPerAccess(loopLayers(*c)) *
                        static_cast<double>(c->steady.accesses);
        staged_ns += c->replay.staged_ns;
        staged_events += static_cast<double>(c->replay.staged_events);
        interleaved_ns += c->replay.interleaved_ns;
        interleaved_events +=
            static_cast<double>(c->replay.interleaved_events);
        measured_ns += c->steady.ns;
        steady_accesses += static_cast<double>(c->steady.accesses);

        sum.accesses += c->r.accesses;
        sum.runtime += c->r.runtime;
        sum.kernel_time += c->r.kernel_time;
        sum.tlb.hits += c->r.tlb.hits;
        sum.tlb.misses += c->r.tlb.misses;
        sum.llc.hits += c->r.llc.hits;
        sum.llc.misses += c->r.llc.misses;
        sum.ddr_read_bytes += c->r.ddr_read_bytes;
        sum.cxl_read_bytes += c->r.cxl_read_bytes;
        sum.migration.promoted += c->r.migration.promoted;
        sum.migration.demoted += c->r.migration.demoted;
        sum.txn.commits += c->r.txn.commits;
        sum.txn.aborts += c->r.txn.aborts;
        snooped += c->snooped;
        wakes += c->wakes;
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double acc = static_cast<double>(sum.accesses);

    for (const auto &l : kLayers) {
        const auto &v = samples[l.stage];
        rep.metric(l.metric, perf::median(v) / l.ns_per_unit, l.unit);
        const double p = perf::tailPercentile(v.size());
        if (p > 0) {
            char name[96];
            std::snprintf(name, sizeof name, "%s.p%g", l.metric, p);
            rep.extra(name, perf::percentile(v, p) / l.ns_per_unit, l.unit);
        }
        rep.extra(std::string(l.metric) + ".batches",
                  static_cast<double>(v.size()), "count");
    }
    rep.metric("cache.tlb_miss_ratio",
               ratio(static_cast<double>(sum.tlb.misses),
                     static_cast<double>(sum.tlb.hits + sum.tlb.misses)),
               "ratio", true);
    rep.metric("cache.llc_miss_ratio",
               ratio(static_cast<double>(sum.llc.misses), acc), "ratio",
               true);
    rep.metric("mem.lower_fill_ratio",
               ratio(static_cast<double>(sum.cxl_read_bytes),
                     static_cast<double>(sum.ddr_read_bytes +
                                         sum.cxl_read_bytes)),
               "ratio", true);
    rep.metric("cxl.snooped_per_access",
               ratio(static_cast<double>(snooped), acc), "ratio", true);
    rep.metric("os.daemon_wakes_per_maccess",
               ratio(static_cast<double>(wakes) * 1e6, acc), "1/Maccess",
               true);
    rep.metric("os.migration.promoted",
               static_cast<double>(sum.migration.promoted), "count", true);
    rep.metric("os.migration.demoted",
               static_cast<double>(sum.migration.demoted), "count", true);
    rep.metric("os.migration.txn_commit_ratio",
               ratio(static_cast<double>(sum.txn.commits),
                     static_cast<double>(sum.txn.commits + sum.txn.aborts)),
               "ratio", true);
    rep.metric("os.kernel_share",
               ratio(static_cast<double>(sum.kernel_time),
                     static_cast<double>(sum.runtime)),
               "ratio", true);
    rep.metric("sim.runner.parallel_eff",
               ratio(busy_ns, static_cast<double>(workersOf(w)) * wall_ns),
               "ratio");
    rep.metric("sim.runner.cell_wall_p50_s",
               perf::percentile(cell_wall_s, 50), "s");
    rep.metric("sim.runner.cell_wall_p70_s",
               perf::percentile(cell_wall_s, 70), "s");
    rep.metric("workloads.make_ms", perf::median(make_ns) / 1e6, "ms");
    rep.metric("sim.setup_other_ms", perf::median(other_ns) / 1e6, "ms");
    rep.metric("reconcile.unattributed_pct",
               perf::unattributedPct(ratio(measured_ns, steady_accesses),
                                     ratio(predicted_ns, steady_accesses)),
               "%");
    // Spans are the only work a staged batch does beyond plain
    // per-stage accumulators, so their recording time is the overhead.
    rep.metric("trace.overhead_pct",
               ratio(100.0 * span_ns, staged_batch_ns - span_ns), "%");
    rep.extra("reconcile.measured_ns_per_access",
              ratio(measured_ns, steady_accesses), "ns");
    rep.extra("reconcile.predicted_ns_per_access",
              ratio(predicted_ns, steady_accesses), "ns");
    rep.extra("reconcile.overlap_factor",
              ratio(ratio(interleaved_ns, interleaved_events),
                    ratio(staged_ns, staged_events)),
              "x");
    // The replay batches' own time outside any stage span: bookkeeping
    // the per-layer numbers do not see.
    const std::vector<double> self = perf::selfTimesNs(spans);
    double batch_ns = 0.0, batch_self_ns = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name != "replay.batch")
            continue;
        batch_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
        batch_self_ns += self[i];
    }
    rep.extra("trace.batch_self_pct", ratio(100.0 * batch_self_ns, batch_ns),
              "%");
    rep.extra("trace.spans", static_cast<double>(spans.size()), "count");
    writeTraceEvents(o, spans);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    Report rep(o);
    Checks checks;
    if (o.trace)
        runTraced(o, rep, checks);
    else
        runTimed(o, rep, checks);
    rep.finish(checks);
    return 0;
}
