/**
 * @file
 * Cycle-level out-of-order pipeline model.
 *
 * Stage structure per cycle (evaluated oldest-work-first so the model
 * is deadlock free):
 *
 *   1. completion events (writeback): ROB entries transition to
 *      completed, loads release their LSQ entry;
 *   2. commit: in order, up to commit width, stores write the DL1;
 *   3. issue: oldest-first wakeup/select over the IQ with per-class
 *      functional unit limits; loads walk DTLB/DL1/L2/memory;
 *   4. dispatch: fetch buffer -> ROB/IQ/LSQ, gated by the DVM policy;
 *   5. fetch: IL1/ITLB access, gshare + BTB + RAS prediction; direction
 *      mispredicts block fetch until the branch resolves.
 *
 * The model is trace driven (committed path only); wrong-path work is
 * approximated by the front-end redirect bubbles. Store-to-load
 * forwarding conflicts and write-back traffic are not modelled; see
 * DESIGN.md for the substitution notes.
 *
 * Hot-path design notes
 * ---------------------
 * Every campaign, exploration round and figure bench bottoms out in
 * this cycle loop, so its data structures are chosen for the per-cycle
 * walks rather than for generality. All of the following preserve
 * simulated results bit for bit (pinned by the golden report tests
 * and the simulate() digests in tests/data/golden_sim_digests.txt):
 *
 *  - An op's seq is its decode index. Fetch, dispatch and commit are
 *    in order, so every stage reads the op as (*ops)[seq] and the
 *    pipeline keeps only dynamic state: the fetch queue is the seq
 *    range [robTail, fetchPos), the ROB is [frontSeq, robTail), and
 *    per-slot state (completeCycle, consumer links, the issue bits)
 *    lives in arrays keyed by seq modulo a power-of-two slot count
 *    of at least robSize, allocated once at construction.
 *  - Wakeup and select are event driven. Dispatch resolves an entry's
 *    producers once and links it into each producer whose completion
 *    has not drained yet; draining a completion walks that producer's
 *    consumers, and the last pending producer sets the consumer's
 *    ready bit. An entry is ready exactly when its operands'
 *    completeCycles are <= cycle, since each completion drains at the
 *    start of its cycle, before issue.
 *  - Two BitRings (ring_buffer.hh) over ROB slots (seq modulo at
 *    least 64 slots) hold the unissued IQ residents and which of them
 *    are ready. The issue stage reads them 64 slots at a time from
 *    the ROB head and visits only ready bits, oldest first; an
 *    entry's place in the scan cap is its rank among the unissued
 *    bits at scan start, so the cap, FU arbitration and the DVM
 *    observations are those of a walk over every resident.
 *  - A scan that finds nothing ready inside the cap makes the issue
 *    stage idle until some ready bit is set (only a completion or a
 *    dispatch sets one, and only issue changes ranks), and its DVM
 *    observations are reproduced in closed form meanwhile.
 *  - Per-class properties (isMem, isControl, executionLatency and the
 *    AceWeights fractions) are table reads inlined from their headers:
 *    the stages look them up for every op and every event.
 *  - Completion events live in a CalendarQueue (calendar_queue.hh):
 *    execution latencies are bounded by the longest load latency
 *    (dl1Lat + tlbMissLat + l2Lat + memLat) plus the largest fixed
 *    executionLatency, the queue's fixed horizon, so per-cycle
 *    buckets replace the former std::priority_queue and
 *    schedule/drain are O(1) amortised. Buckets are sorted before
 *    draining because within-cycle completion order feeds
 *    floating-point AVF accumulation and is therefore bit-significant.
 *  - The ops come from an immutable array decoded once per run
 *    shape (decodeOps, workload/stream.hh): every run of that shape,
 *    on any thread, reads the same array, so a pipeline never decodes
 *    and the array needs no lock.
 *  - Idle-cycle fast-forward: runInstructions() jumps over provably
 *    inert cycles — every stage blocked (issue idle or the IQ empty),
 *    with the earliest possible state change bounded by the next
 *    completion event or the fetch unblock — in one step, with exact
 *    integer occupancy accounting (occ * k) and bitwise-exact AVF
 *    accumulation (AvfAccumulator::tickMany replays the FP adds with
 *    a fixed-point early exit). The constructor arms it whenever the
 *    DVM controller is disabled: an enabled controller observes and
 *    mutates its window state every cycle, so no cycle is inert.
 *    High-CPI (memory-bound) configurations spend most cycles
 *    waiting on memory, which is where the skip pays most.
 *
 * A pipeline is one run's whole machine state, and runs share
 * nothing but the decoded ops: each run's control flow diverges after
 * the first config-dependent stall, so there is no cross-run
 * per-cycle loop to vectorise, and the scheduler simulates every run
 * as its own pool task (exec/scheduler.hh).
 *
 * The bit-identity reference is a deliberately naive driver in
 * tests/sim/batch_test.cc: the same warmup and interval loop over a
 * pipeline with the fast-forward switched off (setIdleSkip(false)),
 * so every cycle runs through cycleOnce(). simulate(), and any number
 * of runs sharing one decode, must reproduce its results byte for
 * byte.
 *
 * bench/sim_throughput.cc measures the resulting simulate()
 * instructions/second and records them in BENCH_sim.json.
 */

#ifndef WAVEDYN_SIM_PIPELINE_HH
#define WAVEDYN_SIM_PIPELINE_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "avf/estimator.hh"
#include "dvm/controller.hh"
#include "power/model.hh"
#include "sim/bpred.hh"
#include "sim/cache.hh"
#include "sim/calendar_queue.hh"
#include "sim/config.hh"
#include "sim/ring_buffer.hh"
#include "workload/stream.hh"

namespace wavedyn
{

/** AVF values of the tracked structures over a window. */
struct AvfSample
{
    double iq = 0.0;
    double rob = 0.0;
    double lsq = 0.0;

    /** Bit-weighted combination used as the "processor AVF" metric. */
    double combined(const SimConfig &cfg) const;
};

/**
 * The out-of-order core. Drives one benchmark's instruction stream
 * through the machine; exposes per-interval activity and AVF windows.
 */
class Pipeline
{
  public:
    /**
     * Every stage reads @p ops by seq; the array must outlive the
     * pipeline and hold every op fetched: the ops committed plus
     * fetchAhead(cfg) (sim/batch.hh). The idle-cycle fast-forward is
     * armed unless @p dvm is enabled.
     */
    Pipeline(const std::vector<MicroOp> &ops, const SimConfig &cfg,
             DvmConfig dvm = {});

    /** Simulate until `count` more instructions commit. */
    void runInstructions(std::uint64_t count);

    /**
     * Switch the idle-cycle fast-forward. Only the test oracle turns
     * it off, to run every cycle as the plain-loop reference; turning
     * it on is ignored while the DVM controller is enabled, since the
     * controller observes every cycle.
     */
    void
    setIdleSkip(bool on)
    {
        idleSkip = on && !dvmCtl.config().enabled;
    }

    /** Activity accumulated since the last interval reset. */
    const ActivityCounts &intervalActivity() const { return activity; }

    /** AVF over the current interval window. */
    AvfSample intervalAvf() const;

    /** Close the interval: clears activity and AVF windows. */
    void resetInterval();

    /** Cycles elapsed since construction. */
    std::uint64_t now() const { return cycle; }

    /** Cycles covered by the idle fast-forward. */
    std::uint64_t idleSkippedCycles() const { return idleSkipped; }

    /** Walks of the ready bits: issue stages that were not idle. */
    std::uint64_t issueScanCount() const { return issueScans; }

    /** Of those, the walks that found no entry ready inside the cap. */
    std::uint64_t idleIssueScanCount() const { return idleIssueScans; }

    /** Instructions committed since construction. */
    std::uint64_t committed() const { return totalCommitted; }

    /** DVM controller state (valid when DVM configured). */
    const DvmController &dvm() const { return dvmCtl; }

    /** Cache hierarchies, exposed for tests and diagnostics. */
    const Cache &il1() const { return il1Cache; }
    const Cache &dl1() const { return dl1Cache; }
    const Cache &l2() const { return l2Cache; }
    const BpredStats &bpredStats() const { return bpStats; }

  private:
    /** End of a producer's consumer list. */
    static constexpr std::uint64_t kNoLink = ~0ull;
    /** No mispredicted branch pending. */
    static constexpr std::uint64_t kNoSeq = ~0ull;

    void cycleOnce();
    void doCompletions();
    void doCommit();
    void doIssue();
    void doDispatch();
    void doFetch();

    /**
     * Cycles from `cycle` during which every stage is provably inert
     * (0 = this cycle must run normally). Only meaningful with the
     * DVM controller disabled — see idleSkip.
     */
    std::uint64_t idleCycles();

    /** Account @p k inert cycles exactly and advance the clock. */
    void skipCycles(std::uint64_t k);

    /** Completion cycle of ROB entry @p seq (~0 until it issues). */
    std::uint64_t &
    completeCycle(std::uint64_t seq)
    {
        assert(seq >= frontSeq && seq < robTail);
        return completeA[seq & slotMask];
    }

    /**
     * Enter dispatched op @p seq into the unissued ring and link it to
     * its producers whose completions have not drained.
     */
    void enterIq(std::uint64_t seq, const MicroOp &op);

    /** Set @p seq's ready bit; the issue stage is no longer idle. */
    void
    markReady(std::uint64_t seq)
    {
        readyBits.set(seq);
        issueIdle = false;
    }

    /** Load latency through DTLB/DL1/L2/memory; updates stats. */
    unsigned loadLatency(std::uint64_t addr);

    SimConfig cfg;

    Cache il1Cache, dl1Cache, l2Cache;
    Tlb itlb, dtlb;
    GsharePredictor gshare;
    Btb btb;
    ReturnAddressStack ras;
    BpredStats bpStats;

    AceWeights ace;
    AvfAccumulator iqAvfAcc, robAvfAcc, lsqAvfAcc;
    DvmController dvmCtl;

    CalendarQueue completions;
    const std::vector<MicroOp> *ops; //!< the run shape's decode; by seq
    std::uint64_t frontSeq = 0; //!< ROB head: oldest uncommitted seq
    std::uint64_t robTail = 0;  //!< ops dispatched; fetch queue head
    std::uint64_t fetchPos = 0; //!< ops fetched; fetch queue tail
    bool idleSkip = false;      //!< fast-forward armed
    std::uint64_t idleSkipped = 0; //!< cycles fast-forwarded over
    std::uint64_t issueScans = 0;     //!< see issueScanCount()
    std::uint64_t idleIssueScans = 0; //!< see idleIssueScanCount()

    /** Unissued IQ residents, and which of them are ready, by seq. */
    BitRing unissuedBits, readyBits;
    /**
     * The issue stage found nothing ready inside the scan cap and no
     * ready bit has been set since: the next scan would find nothing
     * either (only issue changes ranks).
     */
    bool issueIdle = false;

    /** Per ROB slot (seq & slotMask): completion cycle, set at issue. */
    std::vector<std::uint64_t> completeA;

    /**
     * Consumer links, keyed by seq & slotMask (live seqs span at most
     * robSize <= slotMask + 1, so slots are unique among residents): a
     * head per producer, a link per operand slot, so nothing is
     * allocated. pending counts the producers whose completions have
     * not drained.
     */
    struct Waiter
    {
        std::uint64_t consumers = kNoLink; //!< (seq << 1) | operand
        std::uint64_t next[2] = {kNoLink, kNoLink}; //!< per operand
        unsigned pending = 0;
    };
    std::vector<Waiter> waitA;
    std::uint64_t slotMask = 0;

    std::uint64_t cycle = 0;
    std::uint64_t totalCommitted = 0;
    std::uint64_t committedTarget = 0;

    unsigned iqOcc = 0;
    unsigned lsqOcc = 0;

    // Front-end stall state.
    std::uint64_t fetchBlockedUntil = 0;
    /** Mispredicted branch that fetch waits on until it issues. */
    std::uint64_t resolveSeq = kNoSeq;
    std::uint64_t lastFetchLine = ~0ull;
    std::uint64_t lastFetchPage = ~0ull;
    // pc -> line/page number: shift when the size is a power of two
    // (identical quotient by definition), divide otherwise. Both run
    // once per fetched op, so keep them off the divider.
    unsigned il1LineShift = 0; //!< valid iff il1LinePow2
    unsigned pageShift = 0;    //!< valid iff pagePow2
    bool il1LinePow2 = false;
    bool pagePow2 = false;

    // DVM observations from the previous issue scan.
    std::uint64_t lastReadyCount = 0;
    std::uint64_t lastWaitingCount = 0;
    std::uint64_t l2MissOutstandingUntil = 0;

    ActivityCounts activity;
};

} // namespace wavedyn

#endif // WAVEDYN_SIM_PIPELINE_HH
