/**
 * @file
 * Simulator hot-path throughput: simulated instructions per second of
 * the end-to-end simulate() loop across the six workload families
 * (profile 0 of seed 1) plus a paper profile, simulateBatch() — N
 * distinct lattice configs sharing one decode, simulated one after
 * another — at N = 1/4/16/64 on the same workloads, the same 64
 * configs each simulate()d alone (decoding per run), and raw
 * instruction-decode throughput with the random-access reference path
 * (at(i)) versus the streaming Cursor.
 *
 * This is the perf trajectory anchor for the cycle loop: `--json
 * BENCH_sim.json` records every row so regressions in the hot path
 * show up as a diffable number, and CI runs it as a Release smoke
 * step at WAVEDYN_SCALE=smoke. Rows are best-of-3 wall-clock timings
 * to damp scheduler noise; the decode rows also cross-check that both
 * paths produce identical micro-ops over the measured range.
 */

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <utility>

#include <unistd.h>

#include "bench/common.hh"
#include "cache/store.hh"
#include "exec/scheduler.hh"
#include "sim/batch.hh"
#include "sim/design_space.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"
#include "workload/stream.hh"

using namespace wavedyn;

namespace
{

constexpr int kRepeats = 3;

/** Best-of-N wall-clock seconds of a callable. */
template <typename Fn>
double
bestSeconds(Fn &&fn)
{
    double best = 0.0;
    for (int r = 0; r < kRepeats; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        double sec = std::chrono::duration<double>(t1 - t0).count();
        if (r == 0 || sec < best)
            best = sec;
    }
    return best;
}

struct Row
{
    std::string workload;
    //! "simulate", "simulate-batched", "simulate-each", "decode-*", ...
    std::string kind;
    unsigned batchWidth = 0; //!< lattice configs per row, or 0
    std::uint64_t instructions = 0;
    double seconds = 0.0;

    double
    perSec() const
    {
        return seconds > 0.0
                   ? static_cast<double>(instructions) / seconds
                   : 0.0;
    }

    std::string
    kindLabel() const
    {
        return batchWidth != 0
                   ? kind + "(w" + std::to_string(batchWidth) + ")"
                   : kind;
    }
};

/** End-to-end simulate() throughput of one profile. */
Row
simulateRow(const BenchmarkProfile &profile, const std::string &label,
            const BenchContext &ctx)
{
    SimConfig cfg = SimConfig::baseline();
    // One untimed run warms the allocator and branch predictors of
    // the *host*; simulate() itself is pure, so the timed runs below
    // produce identical SimResults.
    SimResult warm = simulate(profile, cfg, ctx.sizes.samplesPerTrace,
                              ctx.sizes.intervalInstrs);
    Row row;
    row.workload = label;
    row.kind = "simulate";
    row.instructions = warm.totalInstructions;
    row.seconds = bestSeconds([&] {
        simulate(profile, cfg, ctx.sizes.samplesPerTrace,
                 ctx.sizes.intervalInstrs);
    });
    return row;
}

/**
 * The first @p width configs of a fixed prime stride through the
 * paper design space's training lattice: distinct and deterministic,
 * spread over the whole space, as a campaign's runs are.
 */
std::vector<SimConfig>
latticeConfigs(unsigned width)
{
    const DesignSpace space = DesignSpace::paper();
    const std::size_t stride = 3833;
    std::vector<SimConfig> cfgs;
    for (unsigned i = 0; i < width; ++i)
        cfgs.push_back(SimConfig::fromDesignPoint(
            space, space.pointFromFlatTrainIndex(
                       (i * stride) % space.trainSpaceSize())));
    return cfgs;
}

/**
 * Shared-decode throughput of one profile: the aggregate
 * simulated-instruction rate of a simulateBatch() call over @p width
 * distinct lattice configs (latticeConfigs) sharing one decode.
 * Against eachRow() over the same configs, this is the gain of
 * decoding once.
 */
Row
batchedRow(const BenchmarkProfile &profile, const std::string &label,
           unsigned width, const BenchContext &ctx)
{
    const std::vector<SimConfig> cfgs = latticeConfigs(width);
    auto runBatch = [&] {
        return simulateBatch(profile, cfgs, ctx.sizes.samplesPerTrace,
                             ctx.sizes.intervalInstrs);
    };
    std::vector<SimResult> warm = runBatch();
    Row row;
    row.workload = label;
    row.kind = "simulate-batched";
    row.batchWidth = width;
    for (const SimResult &r : warm)
        row.instructions += r.totalInstructions;
    row.seconds = bestSeconds([&] { runBatch(); });
    return row;
}

/**
 * The configs of batchedRow(), each simulate()d alone: one decode per
 * run. The reference for batchedRow()'s shared decode, over the same
 * machines.
 */
Row
eachRow(const BenchmarkProfile &profile, const std::string &label,
        unsigned width, const BenchContext &ctx)
{
    const std::vector<SimConfig> cfgs = latticeConfigs(width);
    Row row;
    row.workload = label;
    row.kind = "simulate-each";
    row.batchWidth = width;
    for (const SimConfig &cfg : cfgs)
        row.instructions += simulate(profile, cfg, ctx.sizes.samplesPerTrace,
                                     ctx.sizes.intervalInstrs)
                                .totalInstructions;
    row.seconds = bestSeconds([&] {
        for (const SimConfig &cfg : cfgs)
            simulate(profile, cfg, ctx.sizes.samplesPerTrace,
                     ctx.sizes.intervalInstrs);
    });
    return row;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string jsonPath = benchJsonPath(argc, argv);
    auto ctx = BenchContext::init(
        "sim_throughput — simulate() hot-path throughput");

    TextTable t("simulated-instruction throughput (best of " +
                fmt(kRepeats) + ")");
    t.header({"workload", "kind", "instrs", "sec", "kinstr/s"});
    std::vector<Row> rows;

    // ---- End-to-end simulate(), six families + one paper profile.
    for (WorkloadFamily f : allFamilies()) {
        ScenarioGenerator gen(f, 1);
        rows.push_back(simulateRow(gen.generate(0), familyName(f), ctx));
    }
    rows.push_back(simulateRow(benchmarkByName("gcc"), "gcc", ctx));

    // ---- N configs sharing one decode (sim/batch.hh), and the
    // widest set again with one decode per run.
    {
        const unsigned widths[] = {1, 4, 16, 64};
        std::vector<std::pair<std::string, BenchmarkProfile>> profiles;
        for (WorkloadFamily f : allFamilies())
            profiles.emplace_back(familyName(f),
                                  ScenarioGenerator(f, 1).generate(0));
        profiles.emplace_back("gcc", benchmarkByName("gcc"));
        for (const auto &[label, profile] : profiles) {
            for (unsigned w : widths)
                rows.push_back(batchedRow(profile, label, w, ctx));
            rows.push_back(eachRow(profile, label, widths[3], ctx));
        }

        // Per-workload speedup of the shared decode: the widest
        // batch's aggregate rate over the same configs run one at a
        // time.
        for (const Row &e : rows) {
            if (e.kind != "simulate-each" || e.perSec() <= 0.0)
                continue;
            for (const Row &b : rows)
                if (b.kind == "simulate-batched" &&
                    b.workload == e.workload &&
                    b.batchWidth == e.batchWidth)
                    std::cout << "batched speedup " << e.workload
                              << " (w" << b.batchWidth
                              << "): " << fmt(b.perSec() / e.perSec(), 2)
                              << "x\n";
        }
    }

    // ---- Raw decode: reference random access vs streaming cursor on
    // the mixed family. The checksums must agree — the cursor is an
    // optimisation, not a different stream.
    {
        ScenarioGenerator gen(WorkloadFamily::Mixed, 1);
        BenchmarkProfile profile = gen.generate(0);
        const std::uint64_t n = std::max<std::uint64_t>(
            ctx.sizes.samplesPerTrace * ctx.sizes.intervalInstrs, 1);
        InstructionStream stream(profile, n);

        std::uint64_t sumScalar = 0, sumCursor = 0;
        auto checksum = [](std::uint64_t acc, const MicroOp &op) {
            return acc + op.pc + op.effAddr + op.dep1 + op.dep2 +
                   static_cast<std::uint64_t>(op.cls);
        };

        Row scalar;
        scalar.workload = "mixed";
        scalar.kind = "decode-scalar";
        scalar.instructions = n;
        scalar.seconds = bestSeconds([&] {
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i)
                acc = checksum(acc, stream.at(i));
            sumScalar = acc;
        });
        rows.push_back(scalar);

        Row cursor;
        cursor.workload = "mixed";
        cursor.kind = "decode-cursor";
        cursor.instructions = n;
        cursor.seconds = bestSeconds([&] {
            InstructionStream::Cursor c(stream);
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < n; ++i)
                acc = checksum(acc, c.next());
            sumCursor = acc;
        });
        rows.push_back(cursor);

        if (sumScalar != sumCursor) {
            std::cerr << "error: cursor decode diverged from at(i) "
                         "(checksum "
                      << sumCursor << " vs " << sumScalar << ")\n";
            return 1;
        }
        std::cout << "decode cross-check: cursor == at(i) over " << n
                  << " instructions\n";
    }

    // ---- Result-cache cold/warm round trip. A cold pass schedules
    // distinct runs (mixed-family profiles) against an empty cache
    // directory, so it computes and stores every run. A warm pass
    // replays that batch several times, each replay on a fresh
    // scheduler, through a fresh cache handle on the last cold pass's
    // directory; every lookup reads and verifies its disk record on
    // the pool. Both are sized to take
    // well over 100 ms and timed best-of-kRepeats like every other
    // row. The warm hit rate is a correctness signal: anything below
    // 1.0 means cache keys drifted.
    ResultCacheStats coldStats, warmStats;
    double coldSec = 0.0, warmSec = 0.0;
    {
        const std::string root =
            (std::filesystem::temp_directory_path() /
             ("wavedyn_bench_cache_" + std::to_string(::getpid())))
                .string();
        std::filesystem::remove_all(root);

        // About 2^20 simulated instructions per cold pass (~0.4 s on
        // one job at quick scale) and 2,048 lookups per warm pass
        // (~0.1 ms each).
        const std::uint64_t perRun =
            std::max<std::uint64_t>(ctx.sizes.samplesPerTrace *
                                        ctx.sizes.intervalInstrs,
                                    1);
        const std::size_t runs =
            std::max<std::uint64_t>((std::uint64_t{1} << 20) / perRun, 1);
        const std::size_t replays = (2048 + runs - 1) / runs;

        ScenarioGenerator gen(WorkloadFamily::Mixed, 1);
        std::vector<BenchmarkProfile> profiles;
        for (std::size_t i = 0; i < runs; ++i)
            profiles.push_back(gen.generate(i));
        // One batch against @p cache; returns its simulated
        // instructions.
        auto runBatch = [&](const std::shared_ptr<ResultCache> &cache) {
            RunScheduler s;
            s.setCache(cache);
            for (const BenchmarkProfile &p : profiles) {
                RunTask task;
                task.benchmark = &p;
                task.config = SimConfig::baseline();
                task.samples = ctx.sizes.samplesPerTrace;
                task.intervalInstrs = ctx.sizes.intervalInstrs;
                s.enqueue(task);
            }
            s.run();
            std::uint64_t instrs = 0;
            for (std::size_t i = 0; i < s.size(); ++i)
                instrs += s.result(i).totalInstructions;
            return instrs;
        };

        std::uint64_t instrs = 0;
        std::string dir;
        int pass = 0;
        coldSec = bestSeconds([&] {
            dir = root + "/" + std::to_string(pass++);
            auto cache = std::make_shared<ResultCache>(dir);
            instrs = runBatch(cache);
            coldStats = cache->stats();
        });
        bool allHit = true;
        warmSec = bestSeconds([&] {
            auto cache = std::make_shared<ResultCache>(dir);
            for (std::size_t r = 0; r < replays; ++r)
                runBatch(cache);
            warmStats = cache->stats();
            allHit = allHit && warmStats.hits == runs * replays;
        });
        std::filesystem::remove_all(root);

        Row cold;
        cold.workload = "mixed-batch";
        cold.kind = "sched-cold";
        cold.instructions = instrs;
        cold.seconds = coldSec;
        rows.push_back(cold);
        Row warm = cold;
        warm.kind = "sched-warm";
        warm.instructions = instrs * replays;
        warm.seconds = warmSec;
        rows.push_back(warm);

        std::uint64_t looked = warmStats.hits + warmStats.misses;
        double hitRate =
            looked > 0 ? static_cast<double>(warmStats.hits) /
                             static_cast<double>(looked)
                       : 0.0;
        std::cout << "cache round trip: " << coldStats.stores
                  << " stored cold, " << warmStats.hits << "/" << looked
                  << " replayed warm (" << fmt(hitRate * 100.0, 1)
                  << "% hit rate)\n";
        if (!allHit) {
            std::cerr << "error: a warm pass missed "
                      << warmStats.misses
                      << " runs — cache keys are not stable\n";
            return 1;
        }
    }

    for (const auto &r : rows)
        t.row({r.workload, r.kindLabel(), fmt(r.instructions),
               fmt(r.seconds, 3), fmt(r.perSec() / 1000.0, 1)});
    t.print(std::cout);

    if (!jsonPath.empty()) {
        JsonValue doc = benchJsonHeader("sim_throughput", ctx);
        doc.set("samples", std::uint64_t{ctx.sizes.samplesPerTrace});
        doc.set("interval_instrs",
                std::uint64_t{ctx.sizes.intervalInstrs});
        doc.set("repeats", std::uint64_t{kRepeats});
        JsonValue arr = JsonValue::array();
        for (const auto &r : rows) {
            JsonValue row = JsonValue::object();
            row.set("workload", r.workload);
            row.set("kind", r.kind);
            if (r.batchWidth != 0)
                row.set("batch_width", std::uint64_t{r.batchWidth});
            row.set("instructions", r.instructions);
            row.set("seconds", r.seconds);
            row.set("instrs_per_sec", r.perSec());
            arr.push(std::move(row));
        }
        doc.set("rows", std::move(arr));
        JsonValue cacheDoc = JsonValue::object();
        cacheDoc.set("cold_seconds", coldSec);
        cacheDoc.set("warm_seconds", warmSec);
        cacheDoc.set("cold_stores", coldStats.stores);
        cacheDoc.set("warm_hits", warmStats.hits);
        cacheDoc.set("warm_misses", warmStats.misses);
        std::uint64_t looked = warmStats.hits + warmStats.misses;
        cacheDoc.set("warm_hit_rate",
                     looked > 0
                         ? static_cast<double>(warmStats.hits) /
                               static_cast<double>(looked)
                         : 0.0);
        doc.set("cache", std::move(cacheDoc));
        writeBenchJson(jsonPath, doc);
    }
    return 0;
}
