#include "workload/stream.hh"

#include <cassert>
#include <cmath>

namespace wavedyn
{

namespace
{

// Draw slots per instruction index; every random decision about
// instruction i uses counter i * drawSlots + slot so decisions are
// independent and reproducible.
enum DrawSlot : std::uint64_t
{
    SlotClass = 0,
    SlotDep1Near,
    SlotDep1Dist,
    SlotDep2Prob,
    SlotDep2Dist,
    SlotAddrKind,
    SlotAddrValue,
    SlotBranchFlip,
    SlotControlKind,
    DrawSlots,
};

// Two-level loop structure of the dynamic block walk: inner loops of
// loopBody blocks iterate loopPeriod times, and a "function" of
// funcInstances such loops is re-entered funcRepeats times before the
// walk advances (medium-range temporal reuse, as real call chains
// have; without it predictor tables never warm up).
constexpr std::uint64_t loopBody = 4;      //!< blocks per inner loop
constexpr std::uint64_t funcInstances = 16;
constexpr std::uint64_t funcRepeats = 8;

/** Quantisation steps of the within-segment footprint modulation. */
constexpr double modSteps = 32.0;

/**
 * Modulated data footprint of a segment at one quantisation step (the
 * step quantisation keeps addresses local within a chunk instead of
 * re-wrapping them every instruction), rounded to 8 KiB.
 */
std::uint64_t
footprintOf(const PhaseSegment &seg, std::uint32_t bucket)
{
    double local_q = static_cast<double>(bucket) / modSteps;
    double mod = 1.0 + seg.modAmp *
                 std::sin(2.0 * M_PI * seg.modCycles * local_q);
    double fp = static_cast<double>(seg.dataFootprint) * mod;
    if (fp < 8192.0)
        fp = 8192.0;
    return static_cast<std::uint64_t>(fp) & ~8191ull;
}

/** Geometric-ish distance from a uniform draw with the given mean. */
std::uint32_t
geometricDistance(double u, double mean, std::uint32_t cap)
{
    if (u >= 1.0)
        u = 1.0 - 1e-12;
    // Inverse CDF of an exponential with the requested mean.
    double d = -mean * std::log1p(-u);
    std::uint32_t v = static_cast<std::uint32_t>(d) + 1;
    return v > cap ? cap : v;
}

} // anonymous namespace

InstructionStream::InstructionStream(const BenchmarkProfile &profile,
                                     std::uint64_t totalInstrs)
    : prof(profile), total(totalInstrs ? totalInstrs : 1),
      rng(hashCombine(profile.seed, 0x77a4edULL))
{
}

void
InstructionStream::locate(std::uint64_t i, std::size_t &seg,
                          double &local) const
{
    double frac = static_cast<double>(i % total) /
                  static_cast<double>(total);
    prof.locate(frac, seg, local);
}

std::pair<std::size_t, std::uint32_t>
InstructionStream::keyAt(std::uint64_t i) const
{
    std::size_t seg;
    double local;
    locate(i, seg, local);
    return {seg, static_cast<std::uint32_t>(std::floor(local * modSteps))};
}

std::size_t
InstructionStream::segmentAt(std::uint64_t i) const
{
    std::size_t seg;
    double local;
    locate(i, seg, local);
    return seg;
}

std::uint64_t
InstructionStream::blockLenOf(const PhaseSegment &s)
{
    double len = std::round(s.avgBlockLen);
    if (len < 2.0)
        len = 2.0;
    return static_cast<std::uint64_t>(len);
}

InstructionStream::DecodeContext
InstructionStream::makeContext(std::size_t segIdx,
                               std::uint32_t bucket) const
{
    const PhaseSegment &seg = prof.script[segIdx];
    DecodeContext ctx;
    ctx.seg = &seg;
    ctx.segIdx = segIdx;
    ctx.bucket = bucket;

    // ---- Block structure. Blocks of length L end in a control op.
    ctx.blockLen = blockLenOf(seg);
    ctx.blockBytes = ctx.blockLen * 4;
    std::uint64_t lp =
        static_cast<std::uint64_t>(std::round(seg.loopPeriod));
    if (lp < 2)
        lp = 2;
    ctx.loopPeriod = lp;
    ctx.span = loopBody * lp;

    std::uint64_t static_blocks = seg.codeFootprint / ctx.blockBytes;
    if (static_blocks == 0)
        static_blocks = 1;
    ctx.staticBlocks = static_blocks;
    // Hot code region: the walk folds onto a sixteenth of the static
    // footprint; rare jumps touch the cold remainder. IL1 behaviour
    // keys off il1_size vs hot-region size. The region size is kept a
    // multiple of loopBody so folding preserves a block's position
    // within the loop body — a static PC is then *always* a back edge
    // or *always* a forward branch, which predictor tables rely on.
    std::uint64_t hot_blocks = (static_blocks / 16) & ~(loopBody - 1);
    if (hot_blocks < loopBody)
        hot_blocks = loopBody;
    ctx.hotBlocks = hot_blocks;
    // Per-segment code/data regions so different phases run different
    // code and address distinct data.
    ctx.codeRegion =
        hashCombine(prof.seed, 0xc0de0000ull + segIdx) << 20;
    ctx.dataRegion =
        0x100000000ull +
        (hashCombine(prof.seed, 0xda7a0000ull + segIdx) << 24);

    ctx.footprint = footprintOf(seg, bucket);
    ctx.quarter = ctx.footprint / 4;
    ctx.hotBytes = ctx.quarter ? ctx.quarter : ctx.footprint;
    // Sequential streams each cycle a window of their quarter of the
    // footprint. The window scales with the footprint (clamped to
    // [8 KiB, 256 KiB]) so small working sets revisit and become cache
    // resident while large ones keep streaming — giving the
    // cache-capacity regimes the design space must distinguish.
    std::uint64_t window = ctx.footprint / 8;
    if (window < 8192)
        window = 8192;
    if (window > 262144)
        window = 262144;
    ctx.streamWindow = window;

    // ---- Renormalise the non-control class mix over the remaining
    // slots into cumulative thresholds.
    double f_load = seg.fracLoad;
    double f_store = seg.fracStore;
    double f_fpalu = seg.fracFpAlu;
    double f_fpmul = seg.fracFpMul;
    double f_imul = seg.fracIntMul;
    double sum = f_load + f_store + f_fpalu + f_fpmul + f_imul;
    double scale = sum > 0.92 ? 0.92 / sum : 1.0;
    double acc = f_load * scale;
    ctx.tLoad = acc;
    ctx.tStore = (acc += f_store * scale);
    ctx.tFpAlu = (acc += f_fpalu * scale);
    ctx.tFpMul = (acc += f_fpmul * scale);
    ctx.tIntMul = (acc += f_imul * scale);
    return ctx;
}

InstructionStream::DecodeContext
InstructionStream::contextAt(std::uint64_t i) const
{
    auto key = keyAt(i);
    return makeContext(key.first, key.second);
}

std::uint64_t
InstructionStream::dataFootprintAt(std::uint64_t i) const
{
    auto key = keyAt(i);
    return footprintOf(prof.script[key.first], key.second);
}

std::uint64_t
InstructionStream::blockBase(const DecodeContext &ctx,
                             std::uint64_t block) const
{
    // Dynamic block -> static slot through the two-level loop
    // structure (see the constants above).
    std::uint64_t instance_raw = block / ctx.span;
    std::uint64_t func = instance_raw / (funcInstances * funcRepeats);
    std::uint64_t within_f = instance_raw % (funcInstances * funcRepeats);
    std::uint64_t instance_eff =
        func * funcInstances + (within_f % funcInstances);
    std::uint64_t inner = (block % ctx.span) % loopBody;
    std::uint64_t slot = instance_eff * loopBody + inner;
    // Static slot -> code address (hot walk with rare cold jumps).
    std::uint64_t h = splitmix64(hashCombine(prof.seed, slot));
    std::uint64_t sb;
    if ((h & 15) != 0) {
        sb = slot % ctx.hotBlocks;
    } else {
        sb = ctx.hotBlocks +
             (ctx.staticBlocks > ctx.hotBlocks
                  ? h % (ctx.staticBlocks - ctx.hotBlocks)
                  : 0);
    }
    return ctx.codeRegion + sb * ctx.blockBytes;
}

MicroOp
InstructionStream::decode(std::uint64_t i, const DecodeContext &ctx,
                          std::uint64_t pcBase,
                          std::uint64_t targetBase) const
{
    const PhaseSegment &seg = *ctx.seg;
    const std::uint64_t base_ctr = i * DrawSlots;

    MicroOp op;

    // ---- Block position and PC. The dynamic block sequence is loop
    // structured — branch PCs recur immediately (predictor tables
    // train) and instruction lines are reused (IL1 locality).
    const std::uint64_t L = ctx.blockLen;
    const std::uint64_t block = i / L;
    const std::uint64_t pos = i % L;
    op.pc = pcBase + pos * 4;

    const bool is_control = pos == L - 1;

    // ---- Class selection.
    if (is_control) {
        double u = rng.uniformAt(base_ctr + SlotControlKind);
        if (u < 0.04)
            op.cls = InstrClass::Call;
        else if (u < 0.08)
            op.cls = InstrClass::Return;
        else
            op.cls = InstrClass::Branch;
    } else {
        double u = rng.uniformAt(base_ctr + SlotClass);
        if (u < ctx.tLoad) {
            op.cls = InstrClass::Load;
        } else if (u < ctx.tStore) {
            op.cls = InstrClass::Store;
        } else if (u < ctx.tFpAlu) {
            op.cls = InstrClass::FpAlu;
        } else if (u < ctx.tFpMul) {
            op.cls = InstrClass::FpMul;
        } else if (u < ctx.tIntMul) {
            op.cls = InstrClass::IntMul;
        } else {
            op.cls = InstrClass::IntAlu;
        }
    }

    // ---- Register dependencies (backward distances).
    {
        constexpr std::uint32_t cap = 256;
        bool near = rng.chanceAt(base_ctr + SlotDep1Near,
                                 seg.depNearProb);
        if (near) {
            op.dep1 = 1 + static_cast<std::uint32_t>(
                rng.belowAt(base_ctr + SlotDep1Dist, 3));
        } else {
            op.dep1 = 3 + geometricDistance(
                rng.uniformAt(base_ctr + SlotDep1Dist),
                seg.depMeanDist, cap);
        }
        if (rng.chanceAt(base_ctr + SlotDep2Prob, seg.dep2Prob)) {
            op.dep2 = 1 + geometricDistance(
                rng.uniformAt(base_ctr + SlotDep2Dist),
                seg.depMeanDist * 0.5 + 1.0, cap);
        }
        // Instruction 0..k has no producers further back than i.
        if (op.dep1 > i)
            op.dep1 = 0;
        if (op.dep2 > i)
            op.dep2 = 0;
    }

    // ---- Memory addresses.
    if (isMem(op.cls)) {
        const std::uint64_t fp = ctx.footprint;
        bool streaming = rng.chanceAt(base_ctr + SlotAddrKind,
                                      seg.streamFrac);
        std::uint64_t offset;
        if (streaming) {
            // Four interleaved sequential streams, each cycling a
            // window of its quarter of the footprint.
            std::uint64_t sid = i & 3;
            std::uint64_t step = ((i >> 2) * 8) % ctx.streamWindow;
            offset = (sid * ctx.quarter + step) % fp;
        } else {
            // "Random" accesses keep temporal locality: 31/32 hit a
            // hot quarter of the footprint (so dl1/L2 capacity vs
            // footprint decides the hit rate), the rest roam the whole
            // structure (a trickle of compulsory misses, as pointer
            // chasing produces in practice).
            std::uint64_t draw = rng.at(base_ctr + SlotAddrValue);
            if ((draw & 31) != 0)
                offset = (draw >> 5) % ctx.hotBytes;
            else
                offset = (draw >> 5) % fp;
            offset &= ~7ull;
        }
        op.effAddr = ctx.dataRegion + offset;
    }

    // ---- Control resolution.
    if (isControl(op.cls)) {
        std::uint64_t within = block % ctx.span;
        std::uint64_t iter = within / loopBody;
        std::uint64_t inner = within % loopBody;

        bool taken;
        if (inner == loopBody - 1) {
            // Back edge: taken on every iteration but the last.
            taken = iter != ctx.loopPeriod - 1;
        } else {
            // Forward branch: direction is a fixed per-PC bias, which
            // a gshare predictor learns quickly. Keyed by the *code
            // address* so slots folding onto one PC agree.
            std::uint64_t h = splitmix64(
                hashCombine(prof.seed ^ 0xf0f0f0f0ull, op.pc));
            taken = (h & 3) != 0; // three quarters of PCs taken-biased
        }
        // Data-dependent noise. Real programs concentrate hard-to-
        // predict outcomes in a minority of branches; spreading flips
        // uniformly would randomise the global history and destroy
        // gshare for *every* branch. One eighth of branch PCs are
        // "noisy" and flip at half the segment's branchEntropy; the
        // rest flip only rarely.
        std::uint64_t pc_h = splitmix64(
            hashCombine(prof.seed ^ 0x9192939495ull, op.pc));
        double flip = (pc_h % 8 == 0) ? 0.5 * seg.branchEntropy
                                      : 0.01 * seg.branchEntropy;
        if (rng.chanceAt(base_ctr + SlotBranchFlip, flip))
            taken = !taken;
        if (op.cls == InstrClass::Call || op.cls == InstrClass::Return)
            taken = true;
        op.branchTaken = taken;
        op.branchTarget = targetBase;
    }

    return op;
}

MicroOp
InstructionStream::at(std::uint64_t i) const
{
    DecodeContext ctx = contextAt(i);
    std::uint64_t block = i / ctx.blockLen;
    // Only the control op at the end of a block consumes the branch
    // target; keep the second block-address hash chain off the
    // non-control majority. (The cursor instead computes it once per
    // block and reuses it as the next block's base.)
    std::uint64_t target = (i % ctx.blockLen == ctx.blockLen - 1)
                               ? blockBase(ctx, block + 1)
                               : 0;
    return decode(i, ctx, blockBase(ctx, block), target);
}

// ---------------------------------------------------------------- Cursor

InstructionStream::Cursor::Cursor(const InstructionStream &stream,
                                  std::uint64_t start)
    : src(&stream), idx(start)
{
}

void
InstructionStream::Cursor::seek(std::uint64_t i)
{
    idx = i;
    boundary = i;      // force refresh on the next next()
    ctxValid = false;
    blockValid = false;
}

void
InstructionStream::Cursor::refresh()
{
    auto key = src->keyAt(idx);
    // Block-base caching keys off segment-level constants only, so it
    // survives a quantisation-step boundary within one segment.
    if (!(ctxValid && key.first == ctx.segIdx))
        blockValid = false;
    ctx = src->makeContext(key.first, key.second);
    ctxValid = true;

    // Find the first index where the (segment, step) key changes. The
    // key is constant on a contiguous run of at most ~total/(32*reps)
    // indices and cannot recur within total/(2*reps) of the run's
    // start, so the predicate "keyAt == key" is monotone on
    // (idx, idx + probe] and binary search against the reference
    // locate() arithmetic finds the exact boundary — no floating-point
    // inversion of the phase script is trusted.
    std::uint64_t reps = src->prof.scriptRepeats
                             ? src->prof.scriptRepeats
                             : 1;
    std::uint64_t probe = src->total / (2 * reps);
    if (probe < 64 || src->keyAt(idx + probe) == key) {
        // Tiny stream (runs shorter than the search is worth), or the
        // run-length bound was somehow exceeded: fall back to
        // re-deriving at the next index — slower, never wrong.
        boundary = idx + 1;
        return;
    }
    std::uint64_t lo = idx, hi = idx + probe;
    while (lo + 1 < hi) {
        std::uint64_t mid = lo + (hi - lo) / 2;
        if (src->keyAt(mid) == key)
            lo = mid;
        else
            hi = mid;
    }
    boundary = hi;
}

MicroOp
InstructionStream::Cursor::next()
{
    if (idx >= boundary || !ctxValid)
        refresh();
    std::uint64_t block = idx / ctx.blockLen;
    if (!blockValid || block != curBlock) {
        curBase = (blockValid && block == curBlock + 1)
                      ? nextBase
                      : src->blockBase(ctx, block);
        nextBase = src->blockBase(ctx, block + 1);
        curBlock = block;
        blockValid = true;
    }
    MicroOp op = src->decode(idx, ctx, curBase, nextBase);
    ++idx;
    return op;
}

std::vector<MicroOp>
decodeOps(const InstructionStream &stream, std::uint64_t count)
{
    std::vector<MicroOp> ops;
    ops.reserve(count);
    InstructionStream::Cursor cursor(stream);
    for (std::uint64_t i = 0; i < count; ++i)
        ops.push_back(cursor.next());
    return ops;
}

} // namespace wavedyn
