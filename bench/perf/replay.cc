#include "replay.hh"

#include <algorithm>

#include "common/logging.hh"
#include "os/costs.hh"
#include "telemetry/prof.hh"

namespace perf {

using namespace m5;

int
SpanLog::add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
             int parent)
{
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        {std::move(name), start_ns, end_ns, id, parent, workload_, tid_});
    return id;
}

int
SpanLog::begin(std::string name, int parent)
{
    const std::uint64_t t = ProfClock::nowNs();
    return add(std::move(name), t, t, parent);
}

void
SpanLog::end(int id)
{
    spans_[static_cast<std::size_t>(id)].end_ns = ProfClock::nowNs();
}

namespace {

/** The CXL controller TieredSystem::buildController would build for
 *  `sys`: PAC over the lower tiers, HPT/HWT as the real one has them. */
CxlControllerConfig
standaloneControllerConfig(TieredSystem &sys)
{
    CxlController &real = sys.controller();
    if (real.hasWac())
        m5_fatal("the replay does not mirror a WAC-enabled controller");
    MemorySystem &mem = sys.memory();
    CxlControllerConfig c;
    if (real.hasPac()) {
        std::uint64_t lower_bytes = 0;
        for (NodeId n = 1; n < mem.tiers(); ++n)
            lower_bytes += mem.tier(n).config().capacity_bytes;
        PacConfig pac;
        pac.first_pfn = mem.tier(kNodeCxl).firstPfn();
        pac.frames = lower_bytes >> kPageShift;
        c.pac = pac;
    }
    if (real.hasHpt())
        c.hpt = sys.config().hpt_cfg;
    if (real.hasHwt())
        c.hwt = sys.config().hwt_cfg;
    return c;
}

/** Bit 63 of a recorded lower-tier address: the access was a write. */
constexpr std::uint64_t kWriteBit = 1ULL << 63;

} // namespace

Replayer::Replayer(TieredSystem &sys, SpanLog &log, std::size_t batch)
    : sys_(sys), log_(log), batch_(batch), tlb_(sys.config().tlb_cfg),
      ctrl_(standaloneControllerConfig(sys)),
      sketch_(makeTracker(sys.config().hpt_cfg)), ev_(batch), vpn_(batch),
      pfn_(batch), tlb_hit_(batch), pa_(batch), res_(batch), node_(batch),
      next_age_(sys.core().now() + sys.config().mglru_age_period)
{
}

void
Replayer::run(std::uint64_t events, int parent)
{
    const SystemConfig &cfg = sys_.config();
    Workload &workload = sys_.workload();
    PageTable &pt = sys_.pageTable();
    SetAssocCache &llc = sys_.llc();
    MemorySystem &mem = sys_.memory();
    TierLrus &lrus = sys_.lrus();
    MigrationEngine &engine = sys_.migrationEngine();
    PolicyDaemon *daemon = sys_.daemon();
    const NodeId top = sys_.topology().top();
    const MemTier &top_tier = mem.tier(top);
    const Addr top_end =
        top_tier.config().base + top_tier.config().capacity_bytes;
    const bool txn = engine.txnEnabled();
    ReplayStats &out = out_;

    Tick now = sys_.core().now();
    for (std::uint64_t done = 0; done < events; ++batches_) {
        // End the batch where the next event (daemon wake or MGLRU
        // aging) is due, so the event sees the accesses before it, as
        // in the real access loop.
        std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(batch_, events - done));
        const Tick due =
            daemon ? std::min(daemon->nextWake(), next_age_) : next_age_;
        if (due > now) {
            n = std::clamp<std::size_t>(
                static_cast<std::size_t>(static_cast<double>(due - now) /
                                         sim_ns_per_access_) + 1,
                1, n);
        }
        // Two batches of three run stage by stage, the third access by
        // access.
        const bool interleaved = batches_ % 3 == 2;
        const int batch_span = log_.begin("replay.batch", parent);
        const std::uint64_t batch_start = ProfClock::nowNs();
        std::uint64_t t = 0;
        double staged_ns = 0.0;
        auto start = [&] { t = ProfClock::nowNs(); };
        auto stop = [&](const char *stage, std::size_t calls,
                        bool access_path = true) {
            const std::uint64_t e = ProfClock::nowNs();
            if (calls == 0)
                return;
            const double ns = static_cast<double>(e - t);
            out.ns_per_op[stage].push_back(ns / static_cast<double>(calls));
            out.total_ns[stage] += ns;
            out.total_calls[stage] += calls;
            if (access_path)
                staged_ns += ns;
            log_.add(stage, t, e, batch_span);
            out.span_ns += static_cast<double>(ProfClock::nowNs() - e);
        };

        std::size_t walks = 0;
        std::size_t writes = 0;
        Tick lat = 0;
        Tick kernel = 0;
        if (interleaved) {
            // The same components, one access at a time in issueAccess
            // order: what the staged timings are scaled to.
            start();
            for (std::size_t i = 0; i < n; ++i) {
                const AccessEvent e = workload.next();
                const Vpn v = vpnOf(e.va);
                Pfn f = 0;
                if (!tlb_.lookup(v, f)) {
                    f = pt.walk(v);
                    tlb_.fill(v, f);
                    ++walks;
                }
                const Addr a = pageBase(f) | (e.va & (kPageBytes - 1));
                const CacheResult r = llc.access(a, e.is_write);
                if (!r.hit) {
                    if (r.writeback)
                        mem.access(*r.writeback, true, now);
                    lat += mem.access(a, false, now);
                    lrus.touch(v, pt.pte(v).node);
                }
                if (e.is_write && txn) {
                    kernel += engine.noteWrite(v, now);
                    ++writes;
                }
            }
            const std::uint64_t e = ProfClock::nowNs();
            out.interleaved_ns += static_cast<double>(e - t);
            out.interleaved_events += n;
            log_.add("replay.interleaved", t, e, batch_span);
        } else {
            start();
            for (std::size_t i = 0; i < n; ++i)
                ev_[i] = workload.next();
            stop("workloads.next", n);

            start();
            for (std::size_t i = 0; i < n; ++i) {
                vpn_[i] = vpnOf(ev_[i].va);
                tlb_hit_[i] = tlb_.lookup(vpn_[i], pfn_[i]);
            }
            stop("cache.tlb_lookup", n);

            start();
            for (std::size_t i = 0; i < n; ++i) {
                if (tlb_hit_[i])
                    continue;
                pfn_[i] = pt.walk(vpn_[i]);
                tlb_.fill(vpn_[i], pfn_[i]);
                ++walks;
            }
            stop("os.pt_walk", walks);

            start();
            for (std::size_t i = 0; i < n; ++i) {
                pa_[i] = pageBase(pfn_[i]) | (ev_[i].va & (kPageBytes - 1));
                res_[i] = llc.access(pa_[i], ev_[i].is_write);
            }
            stop("cache.llc_access", n);

            start();
            std::size_t mem_calls = 0;
            std::size_t fills = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (res_[i].hit)
                    continue;
                if (res_[i].writeback) {
                    mem.access(*res_[i].writeback, true, now);
                    ++mem_calls;
                }
                lat += mem.access(pa_[i], false, now);
                ++mem_calls;
                ++fills;
            }
            stop("mem.access", mem_calls);

            start();
            for (std::size_t i = 0; i < n; ++i) {
                if (res_[i].hit)
                    continue;
                node_[i] = pt.pte(vpn_[i]).node;
                lrus.touch(vpn_[i], node_[i]);
            }
            stop("os.lru_touch", fills);

            if (txn) {
                start();
                for (std::size_t i = 0; i < n; ++i) {
                    if (ev_[i].is_write) {
                        kernel += engine.noteWrite(vpn_[i], now);
                        ++writes;
                    }
                }
                stop("os.txn_note_write", writes);
            }
            out.staged_ns += staged_ns;
            out.staged_events += n;
            out.staged_batch_ns +=
                static_cast<double>(ProfClock::nowNs() - batch_start);

            // Writebacks and fills that reached a lower tier, in access
            // order, for the standalone units.
            for (std::size_t i = 0; i < n; ++i) {
                if (res_[i].hit)
                    continue;
                if (res_[i].writeback && *res_[i].writeback >= top_end)
                    lower_.push_back(*res_[i].writeback | kWriteBit);
                if (node_[i] != top)
                    lower_.push_back(pa_[i]);
            }
            lower_batch_end_.push_back(lower_.size());
        }

        // Advance simulated time as the access loop does: think time,
        // fill latency, walks and synchronous kernel time, plus daemon
        // debt drained a quantum per access.
        const Tick elapsed = static_cast<Tick>(n) * cfg.think_per_access +
                             lat + walks * cost::kPageWalkNs + kernel;
        const Tick pay = std::min(
            debt_, static_cast<Tick>(n) * cfg.kernel_quantum_per_access);
        debt_ -= pay;
        now += elapsed + pay;
        sim_ns_per_access_ =
            static_cast<double>(elapsed + pay) / static_cast<double>(n);

        if (daemon && daemon->nextWake() <= now) {
            const std::uint64_t moved =
                engine.stats().promoted + engine.stats().demoted;
            start();
            debt_ += daemon->wake(now);
            stop("os.daemon_wake", 1, false);
            lower_wake_at_.push_back(lower_.size());
            // Migrations shoot down the system's TLB, not this one.
            if (engine.stats().promoted + engine.stats().demoted != moved)
                tlb_.flushAll();
        }
        if (now >= next_age_) {
            start();
            lrus.age();
            stop("os.lru_age", 1, false);
            next_age_ = now + cfg.mglru_age_period;
        }

        log_.end(batch_span);
        out.note_writes += writes;
        out.events += n;
        done += n;
    }
    sys_.core().syncTo(now, false);
}

ReplayStats
Replayer::finish(int parent)
{
    // The CXL-side layers on the standalone copies, fed the recorded
    // stream now so their tables never shared the cache with the
    // system's, one sample per staged batch.  The manager queries, and
    // so resets, its trackers at every wake; batches end at wakes, so the
    // mirrored resets fall between batches (untimed).
    auto feed = [&](const char *stage, const auto &observe,
                    const auto &reset) {
        std::size_t from = 0;
        std::size_t w = 0;
        for (std::size_t end : lower_batch_end_) {
            for (; w < lower_wake_at_.size() && lower_wake_at_[w] <= from;
                 ++w)
                reset();
            if (end == from)
                continue;
            const std::uint64_t t0 = ProfClock::nowNs();
            for (std::size_t i = from; i < end; ++i)
                observe(lower_[i] & ~kWriteBit, (lower_[i] & kWriteBit) != 0);
            const std::uint64_t t1 = ProfClock::nowNs();
            const double ns = static_cast<double>(t1 - t0);
            out_.ns_per_op[stage].push_back(ns /
                                            static_cast<double>(end - from));
            out_.total_ns[stage] += ns;
            out_.total_calls[stage] += end - from;
            log_.add(stage, t0, t1, parent);
            from = end;
        }
    };
    const Tick now = sys_.core().now();
    feed(
        "cxl.observe",
        [&](Addr a, bool is_write) { ctrl_.observe(a, is_write, now); },
        [&] {
            if (ctrl_.hasHpt())
                (void)ctrl_.hpt().queryAndReset();
            if (ctrl_.hasHwt())
                (void)ctrl_.hwt().queryAndReset();
        });
    feed(
        "sketch.hpt_access",
        [&](Addr a, bool) { (void)sketch_->access(pfnOf(a)); },
        [&] { sketch_->reset(); });
    return out_;
}

} // namespace perf
