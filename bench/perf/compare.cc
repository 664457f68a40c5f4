/**
 * @file
 * compare: parent-versus-change report over bench_result.json files.
 *
 *   compare [--spec BENCHMARK.json] --parent A.json... --change B.json...
 *
 * Runs are pooled per workload on each side.  Every metric gets one row:
 * each side's median, quartiles and run count, then a verdict.  Host
 * measurements follow perf::verdict (stats.hh) with the bound
 * BENCHMARK.json fixes; per-layer metrics have no bound, so any
 * worsening reads "unresolved".  Deterministic metrics (marked
 * "exact" in the results) and the result digest are compared seed by
 * seed and read "identical" or "changed".  Exits 1 when any row is
 * "worse" or "changed", 2 on bad input.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "json.hh"
#include "stats.hh"

namespace {

struct Spec
{
    bool lower_is_better = true;
    double bound = 0.0;
};

/** One side's observations of one (workload, metric). */
struct Series
{
    bool exact = false;
    std::vector<double> values; //!< In pairing order.
    //! "seed/trace" -> the value as text, compared exactly.
    std::map<std::string, std::string> by_seed;
};

using Side = std::map<std::string, std::map<std::string, Series>>;

perf::Json
load(const std::string &path)
{
    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr, "compare: cannot read %s\n", path.c_str());
        std::exit(2);
    }
    std::stringstream ss;
    ss << f.rdbuf();
    try {
        return perf::Json::parse(ss.str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "compare: %s: %s\n", path.c_str(), e.what());
        std::exit(2);
    }
}

void
addRun(Side &side, const perf::Json &run)
{
    const std::string w = run["workload"].string;
    const std::string key = std::to_string(
        static_cast<long long>(run["seed"].number)) + "/" +
        std::to_string(static_cast<int>(run["trace"].number));
    for (const auto &[name, m] : run["metrics"].object) {
        Series &s = side[w][name];
        s.exact = m["exact"].boolean;
        s.values.push_back(m["value"].number);
        s.by_seed[key] = perf::jsonNumber(m["value"].number);
    }
    const std::string digest = run["result_digest"].string;
    if (!digest.empty()) {
        Series &s = side[w]["result_digest"];
        s.exact = true;
        s.by_seed[key] = digest;
    }
}

void
loadSide(Side &side, const std::vector<std::string> &paths)
{
    for (const auto &p : paths) {
        const perf::Json doc = load(p);
        if (doc["runs"].kind == perf::Json::Kind::Array) {
            for (const auto &run : doc["runs"].array)
                addRun(side, run);
        } else {
            addRun(side, doc);
        }
    }
}

std::map<std::string, Spec>
loadSpec(const std::string &path)
{
    std::map<std::string, Spec> spec;
    const perf::Json doc = load(path);
    for (const char *group : {"end_to_end", "per_layer"}) {
        for (const auto &m : doc[group].array) {
            spec[m["name"].string] = {m["better"].string == "lower",
                                      m["bound"].number};
        }
    }
    return spec;
}

std::string
summary(const Series *s)
{
    if (!s || s->values.empty())
        return "-";
    const perf::Quartiles q = perf::quartiles(s->values);
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.6g [%.6g, %.6g] n=%zu", q.q2, q.q1,
                  q.q3, s->values.size());
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string spec_path = "BENCHMARK.json";
    std::vector<std::string> parent_paths, change_paths;
    std::vector<std::string> *into = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--spec" && i + 1 < argc) {
            spec_path = argv[++i];
        } else if (a == "--parent") {
            into = &parent_paths;
        } else if (a == "--change") {
            into = &change_paths;
        } else if (into && a.rfind("--", 0) != 0) {
            into->push_back(a);
        } else {
            std::fprintf(stderr, "usage: compare [--spec BENCHMARK.json] "
                                 "--parent A.json... --change B.json...\n");
            return 2;
        }
    }
    if (parent_paths.empty() || change_paths.empty()) {
        std::fprintf(stderr, "compare: need --parent and --change files\n");
        return 2;
    }

    const auto spec = loadSpec(spec_path);
    Side parent, change;
    loadSide(parent, parent_paths);
    loadSide(change, change_paths);

    std::set<std::pair<std::string, std::string>> rows;
    for (const Side *side : {&parent, &change})
        for (const auto &[w, metrics] : *side)
            for (const auto &[m, s] : metrics)
                rows.insert({w, m});

    bool bad = false;
    std::printf("%-10s %-34s %-38s %-38s %s\n", "workload", "metric",
                "parent median [q1, q3]", "change median [q1, q3]",
                "verdict");
    for (const auto &[w, m] : rows) {
        const Series *p = parent.count(w) && parent.at(w).count(m)
            ? &parent.at(w).at(m) : nullptr;
        const Series *c = change.count(w) && change.at(w).count(m)
            ? &change.at(w).at(m) : nullptr;
        std::string v;
        if (!p || !c) {
            v = "missing";
        } else if (p->exact || c->exact) {
            std::size_t common = 0;
            bool same = true;
            for (const auto &[key, pv] : p->by_seed) {
                const auto it = c->by_seed.find(key);
                if (it == c->by_seed.end())
                    continue;
                ++common;
                same = same && it->second == pv;
            }
            v = common == 0 ? "no-common-seed"
                            : same ? "identical" : "changed";
            bad = bad || v == "changed";
        } else {
            const auto it = spec.find(m);
            const Spec sp = it == spec.end() ? Spec{} : it->second;
            const perf::Verdict verdict = perf::verdict(
                p->values, c->values, sp.lower_is_better, sp.bound);
            v = perf::verdictName(verdict);
            bad = bad || verdict == perf::Verdict::Worse;
        }
        std::printf("%-10s %-34s %-38s %-38s %s\n", w.c_str(), m.c_str(),
                    summary(p).c_str(), summary(c).c_str(), v.c_str());
    }
    return bad ? 1 : 0;
}
