/**
 * @file
 * The traced replay: per-layer host cost of a warmed-up TieredSystem.
 *
 * Events drawn from the system's own workload go through the system's
 * own components in batches, stage by stage in the order
 * TieredSystem::issueAccess runs them, and each stage of each batch is
 * timed from outside; a batch ends where the next daemon wake or MGLRU
 * aging is due, and that event runs (timed) after it, as in the access
 * loop.  The simulator is not instrumented: the replay only calls its
 * public functions.
 *
 * A stage run over a whole batch overlaps the cache misses of its
 * independent calls, which the real loop, one dependent chain per
 * access, cannot; so every third batch runs the same components access
 * by access, timed only as a whole, to measure that difference.
 *
 * The CXL-side layers (cxl.observe, sketch.hpt_access) already run
 * inside mem.access on the real controller, so they are priced on
 * standalone copies fed the staged batches' lower-tier stream once the
 * replay is over.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "stats.hh"

namespace perf {

/** Spans of one cell, kept in memory until the benchmark exits. */
class SpanLog
{
  public:
    SpanLog(int workload, int tid) : workload_(workload), tid_(tid) {}

    /** Record a finished span; returns its id. */
    int add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
            int parent);

    /** Open a span now; close it with end(). */
    int begin(std::string name, int parent);
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    int workload_;
    int tid_;
    std::vector<Span> spans_;
};

/** What a replay measured. */
struct ReplayStats
{
    //! Per stage, one ns/op sample per staged batch that called it (per
    //! wake or aging for the two event stages).
    std::map<std::string, std::vector<double>> ns_per_op;
    //! Per stage, host ns and calls summed over the staged batches.
    std::map<std::string, double> total_ns;
    std::map<std::string, std::uint64_t> total_calls;
    std::uint64_t events = 0;
    std::uint64_t note_writes = 0; //!< os.txn_note_write calls.
    //! Access-path host time (every stage but the events and the
    //! standalone CXL-side copies) of the staged batches, and the same
    //! accesses' time in the interleaved batches.  Their ratio is the
    //! overlap the staged timing gains by running up to 4096 independent
    //! calls of one stage back to back.
    double staged_ns = 0.0;
    std::uint64_t staged_events = 0;
    double interleaved_ns = 0.0;
    std::uint64_t interleaved_events = 0;
    //! Host ns the staged batches spent on their accesses (events
    //! excluded), and the part of it spent recording spans.
    double staged_batch_ns = 0.0;
    double span_ns = 0.0;
};

/**
 * Replays a system's further accesses in batches of at most `batch`;
 * every third batch is interleaved, the others staged.  Every batch
 * records a span, and each stage of a staged batch one under it.
 */
class Replayer
{
  public:
    Replayer(m5::TieredSystem &sys, SpanLog &log, std::size_t batch);

    /**
     * Replay `events` more accesses under span `parent`, from the
     * system's simulated time; the system's clock is then moved to the
     * replay's, so real runs and replays can alternate.
     */
    void run(std::uint64_t events, int parent);

    /** Price the CXL-side layers on the recorded stream, under span
     *  `parent`, and return everything measured. */
    ReplayStats finish(int parent);

  private:
    m5::TieredSystem &sys_;
    SpanLog &log_;
    std::size_t batch_;
    //! TieredSystem exposes no TLB, so a standalone one of the same
    //! geometry translates the same stream.
    m5::Tlb tlb_;
    m5::CxlController ctrl_;
    std::unique_ptr<m5::TopKTracker> sketch_;

    std::vector<m5::AccessEvent> ev_;
    std::vector<m5::Vpn> vpn_;
    std::vector<m5::Pfn> pfn_;
    std::vector<char> tlb_hit_;
    std::vector<m5::Addr> pa_;
    std::vector<m5::CacheResult> res_;
    std::vector<m5::NodeId> node_;
    //! The staged batches' lower-tier stream, each entry an address
    //! with the write flag in bit 63; where each batch ends in it, and
    //! where each daemon wake fell.
    std::vector<std::uint64_t> lower_;
    std::vector<std::size_t> lower_batch_end_;
    std::vector<std::size_t> lower_wake_at_;

    m5::Tick debt_ = 0;
    m5::Tick next_age_ = 0;
    double sim_ns_per_access_ = 1.0; //!< Refined after every batch.
    std::uint64_t batches_ = 0;
    ReplayStats out_;
};

} // namespace perf
