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
 * simulated results bit for bit (pinned by the golden report tests):
 *
 *  - The ROB and the fetch queue are fixed-capacity power-of-two
 *    RingBuffers (ring_buffer.hh) sized from SimConfig at
 *    construction: no per-push allocation, and the commit walk
 *    touches contiguous memory.
 *  - Unissued IQ residents are additionally tracked in a dense
 *    seq-ordered array (iqSeqA, compacted in place by the scan
 *    itself), so the issue scan visits exactly the candidates the
 *    historical whole-window walk would have considered — in the
 *    same oldest-first order, with the same scan cap — as a
 *    sequential read whose common waiting-entry case never touches
 *    the window entries and fast-forwards over waiting runs four
 *    entries per branch.
 *  - Operand wakeup is exact and event driven. Dispatch resolves an
 *    entry's producers once and links it into each unissued
 *    producer's consumer list; issuing a producer folds its
 *    completeCycle into those consumers. Each resident's wakeup memo
 *    (readyAtA) is therefore the exact cycle its operands are ready,
 *    or kNever while a producer is unissued, and the scan tests
 *    memo <= cycle with no producer walk. A scan that finds nothing
 *    ready puts the issue stage to sleep until the earliest memo,
 *    which is exactly the first cycle a scanned entry can issue.
 *  - Completion events live in a CalendarQueue (calendar_queue.hh):
 *    execution latencies are bounded by l2Lat + memLat + tlbMissLat,
 *    so per-cycle buckets replace the former std::priority_queue and
 *    schedule/drain are O(1) amortised. Buckets are sorted before
 *    draining because within-cycle completion order feeds
 *    floating-point AVF accumulation and is therefore bit-significant.
 *  - Fetch reads decoded ops by dynamic index from an immutable
 *    array decoded once per run shape (decodeOps, workload/stream.hh):
 *    every run of that shape, on any thread, reads the same array, so
 *    a pipeline never decodes and the array needs no lock.
 *  - Idle-cycle fast-forward: runInstructions() jumps over provably
 *    inert cycles — every stage blocked, with the earliest possible
 *    state change bounded by the next completion event / issue-sleep
 *    wakeup / fetch unblock — in one step, with exact integer
 *    occupancy accounting (occ * k) and bitwise-exact AVF
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
     * Fetch reads @p ops by dynamic index; the array must outlive the
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

    /** Issue stages that ran their scan: awake, IQ empty or not. */
    std::uint64_t issueScanCount() const { return issueScans; }

    /** Of those, the scans that found no entry ready. */
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
    /** Wakeup memo of an entry with a producer still unissued. */
    static constexpr std::uint64_t kNever = ~0ull;
    /** End of a producer's consumer list. */
    static constexpr std::uint64_t kNoLink = ~0ull;

    struct InFlight
    {
        MicroOp op;
        std::uint64_t seq = 0;
        std::uint64_t completeCycle = ~0ull;
        bool issued = false;
        bool inIq = false;
        bool inLsq = false;
        bool aceCompleted = false; //!< ROB ACE transition applied
        bool mispredicted = false; //!< direction mispredict at fetch
    };

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

    /** Window entry for a sequence number, or nullptr if committed. */
    InFlight *entryFor(std::uint64_t seq);

    /** Entry known to be live (IQ-list members). No bounds checks. */
    InFlight &
    liveEntry(std::uint64_t seq)
    {
        return window[seq - frontSeq];
    }

    /**
     * Append a dispatched entry to the unissued-IQ scan array and
     * resolve its producers into its wakeup memo and consumer links.
     */
    void iqListAppend(InFlight &e);

    /** Fold a just-issued entry's completeCycle into its consumers. */
    void wakeConsumers(const InFlight &e);

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

    RingBuffer<InFlight> window; //!< the ROB, oldest first
    std::uint64_t frontSeq = 0;  //!< seq of window.front()
    RingBuffer<InFlight> fetchQueue;
    CalendarQueue completions;
    const std::vector<MicroOp> *ops; //!< the run shape's decode
    std::uint64_t fetchPos = 0; //!< ops fetched so far
    bool idleSkip = false;      //!< fast-forward armed
    std::uint64_t idleSkipped = 0; //!< cycles fast-forwarded over
    std::uint64_t issueScans = 0;     //!< see issueScanCount()
    std::uint64_t idleIssueScans = 0; //!< see idleIssueScanCount()

    /**
     * Unissued IQ residents in dispatch (= seq) order: the live span
     * is [iqStart, iqSeqA.size()). Dispatch appends at the back; the
     * issue scan removes by compacting in place as it walks (it
     * touches every live element anyway), so iteration is a dense
     * sequential read, and runs of waiting entries — the bulk of
     * every scan — fast-forward four at a time.
     */
    std::vector<std::uint64_t> iqSeqA;
    std::size_t iqStart = 0;

    /**
     * Exact operand wakeup, keyed by seq & scanSlotMask (live seqs
     * span less than the window capacity, so slots are unique among
     * residents). readyAtA holds each resident's wakeup memo: the
     * cycle its last operand completes, or kNever while a producer
     * has not issued; the entry is ready exactly when memo <= cycle.
     * Dispatch resolves the producers once: committed ones are
     * ready, issued ones contribute their completeCycle, and the
     * entry links itself into each unissued producer's consumer list
     * (a head per producer, a link per operand slot: nothing is
     * allocated). When a producer issues, wakeConsumers() folds its
     * completeCycle in and, on the last pending producer, writes the
     * memo.
     */
    std::vector<std::uint64_t> readyAtA;
    struct Waiter
    {
        std::uint64_t operandsAt = 0; //!< latest known completeCycle
        std::uint64_t consumers = kNoLink; //!< (seq << 1) | operand
        std::uint64_t next[2] = {kNoLink, kNoLink}; //!< per operand
        unsigned pending = 0; //!< producers not yet issued
    };
    std::vector<Waiter> waitA;
    std::uint64_t scanSlotMask = 0;

    /**
     * Issue-stage sleep: when a scan finds every candidate unready,
     * the earliest memo is the first cycle a scanned entry can issue,
     * and the scan until then is pure overhead — its DVM observations
     * are reproduced in closed form (the IQ population is frozen
     * while asleep: only issue removes list entries and any dispatch
     * cancels the sleep).
     */
    std::uint64_t issueSleepUntil = 0;

    std::uint64_t cycle = 0;
    std::uint64_t totalCommitted = 0;
    std::uint64_t committedTarget = 0;

    unsigned iqOcc = 0;
    unsigned lsqOcc = 0;

    // Front-end stall state.
    std::uint64_t fetchBlockedUntil = 0;
    bool fetchWaitingResolve = false;
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
