#include "sim/pipeline.hh"

#include <algorithm>
#include <cassert>

#include "util/bits.hh"

namespace wavedyn
{

namespace
{

/**
 * Longest completion latency a pipeline schedules: a load missing the
 * DTLB, DL1 and L2, plus the largest fixed execution latency (a bound
 * on any other class's). The completion queue's fixed horizon.
 */
std::uint64_t
maxLatency(const SimConfig &cfg)
{
    unsigned fixed = 0;
    for (std::size_t c = 0; c < instrClassCount; ++c)
        fixed = std::max(fixed,
                         executionLatency(static_cast<InstrClass>(c)));
    return std::uint64_t{cfg.dl1Lat} + cfg.tlbMissLat + cfg.l2Lat +
           cfg.memLat + fixed;
}

} // namespace

double
AvfSample::combined(const SimConfig &cfg) const
{
    // Weight each structure by its entry count (bit widths assumed
    // comparable across IQ/ROB/LSQ entries).
    double bits = static_cast<double>(cfg.iqSize + cfg.robSize +
                                      cfg.lsqSize);
    return (iq * cfg.iqSize + rob * cfg.robSize + lsq * cfg.lsqSize) /
           bits;
}

Pipeline::Pipeline(const std::vector<MicroOp> &ops, const SimConfig &cfg,
                   DvmConfig dvm)
    : cfg(cfg),
      il1Cache(cfg.il1SizeKb, cfg.il1Assoc, cfg.il1LineBytes, "il1"),
      dl1Cache(cfg.dl1SizeKb, cfg.dl1Assoc, cfg.dl1LineBytes, "dl1"),
      l2Cache(cfg.l2SizeKb, cfg.l2Assoc, cfg.l2LineBytes, "l2"),
      itlb(cfg.itlbEntries, cfg.itlbAssoc, cfg.pageBytes, "itlb"),
      dtlb(cfg.dtlbEntries, cfg.dtlbAssoc, cfg.pageBytes, "dtlb"),
      gshare(cfg.bpredEntries, cfg.historyBits),
      btb(cfg.btbEntries, cfg.btbAssoc),
      ras(cfg.rasEntries),
      iqAvfAcc(cfg.iqSize), robAvfAcc(cfg.robSize),
      lsqAvfAcc(cfg.lsqSize),
      dvmCtl(dvm, cfg.iqSize),
      completions(maxLatency(cfg)), ops(&ops),
      unissuedBits(cfg.robSize), readyBits(cfg.robSize)
{
    slotMask = ceilPow2(cfg.robSize) - 1;
    completeA.assign(slotMask + 1, ~0ull);
    waitA.assign(slotMask + 1, Waiter{});
    auto shift_of = [](unsigned v, unsigned &shift, bool &pow2) {
        if (v == 0 || (v & (v - 1)) != 0)
            return;
        pow2 = true;
        while ((1u << shift) < v)
            ++shift;
    };
    shift_of(cfg.il1LineBytes, il1LineShift, il1LinePow2);
    shift_of(cfg.pageBytes, pageShift, pagePow2);
    setIdleSkip(true);
}

void
Pipeline::enterIq(std::uint64_t seq, const MicroOp &op)
{
    // Resolve the producers once: committed or completed means ready,
    // otherwise the entry waits on that producer's completion. A
    // completion at or before `cycle` has drained (doCompletions runs
    // first), so completed means completeCycle <= cycle.
    Waiter &w = waitA[seq & slotMask];
    w = Waiter{};
    const std::uint32_t deps[2] = {op.dep1, op.dep2};
    for (unsigned k = 0; k < 2; ++k) {
        if (deps[k] == 0)
            continue;
        std::uint64_t pseq = seq - deps[k];
        if (pseq < frontSeq || pseq >= seq)
            continue; // committed, or before the first instruction
        if (completeCycle(pseq) <= cycle)
            continue;
        ++w.pending;
        Waiter &pw = waitA[pseq & slotMask];
        w.next[k] = pw.consumers;
        pw.consumers = (seq << 1) | k;
    }
    unissuedBits.set(seq);
    if (w.pending == 0)
        markReady(seq);
}

unsigned
Pipeline::loadLatency(std::uint64_t addr)
{
    unsigned lat = cfg.dl1Lat;
    ++activity.dtlbAccesses;
    if (!dtlb.access(addr)) {
        ++activity.dtlbMisses;
        lat += cfg.tlbMissLat;
    }
    ++activity.dl1Accesses;
    if (!dl1Cache.access(addr)) {
        ++activity.dl1Misses;
        ++activity.l2Accesses;
        if (!l2Cache.access(addr)) {
            ++activity.l2Misses;
            ++activity.memAccesses;
            lat += cfg.l2Lat + cfg.memLat;
            std::uint64_t done = cycle + lat;
            l2MissOutstandingUntil =
                std::max(l2MissOutstandingUntil, done);
        } else {
            lat += cfg.l2Lat;
        }
    }
    return lat;
}

void
Pipeline::doCompletions()
{
    completions.drain(cycle, [&](std::uint64_t seq) {
        // Each op completes once, and commits only after its
        // completion has drained.
        assert(completeCycle(seq) == cycle);
        const InstrClass cls = (*ops)[seq].cls;
        // The last pending producer readies its consumer.
        for (std::uint64_t l = waitA[seq & slotMask].consumers;
             l != kNoLink;) {
            const std::uint64_t cseq = l >> 1;
            Waiter &c = waitA[cseq & slotMask];
            l = c.next[l & 1];
            if (--c.pending == 0)
                markReady(cseq);
        }
        // ROB entry: in-flight ACE state shrinks to the pending result.
        robAvfAcc.release(ace.robInFlight(cls));
        robAvfAcc.occupy(ace.robCompleted(cls));
        // Loads free their LSQ slot at writeback.
        if (cls == InstrClass::Load) {
            assert(lsqOcc > 0);
            --lsqOcc;
            lsqAvfAcc.release(ace.lsq(InstrClass::Load));
        }
    });
}

void
Pipeline::doCommit()
{
    unsigned done = 0;
    while (done < cfg.fetchWidth && frontSeq < robTail &&
           totalCommitted < committedTarget) {
        // A complete head has drained its completion (doCompletions
        // runs first), so its ROB ACE state is the completed one.
        if (completeCycle(frontSeq) > cycle)
            break;
        const MicroOp &op = (*ops)[frontSeq];

        // Stores write the data cache at commit (no stall; write
        // buffering assumed), and free their LSQ slot.
        if (op.cls == InstrClass::Store) {
            ++activity.dl1Accesses;
            if (!dl1Cache.access(op.effAddr)) {
                ++activity.dl1Misses;
                ++activity.l2Accesses;
                if (!l2Cache.access(op.effAddr)) {
                    ++activity.l2Misses;
                    ++activity.memAccesses;
                }
            }
            assert(lsqOcc > 0);
            --lsqOcc;
            lsqAvfAcc.release(ace.lsq(InstrClass::Store));
        }

        robAvfAcc.release(ace.robCompleted(op.cls));
        ++activity.committed;
        ++totalCommitted;
        ++done;
        ++frontSeq;
    }
}

void
Pipeline::doIssue()
{
    const unsigned issue_width = cfg.fetchWidth;
    const unsigned scan_cap = std::max(32u, 3 * issue_width);
    const std::uint64_t in_iq = iqOcc; // unissued residents at scan start

    if (issueIdle) {
        // Nothing is ready inside the cap, so the scan would issue
        // nothing and observe ready = 0 and a waiting count of len, or
        // len - 1 after a cap break (see below).
        lastReadyCount = 0;
        lastWaitingCount = in_iq <= scan_cap ? in_iq : in_iq - 1;
        return;
    }

    unsigned fu_int_alu = 0, fu_int_mul = 0;
    unsigned fu_fp_alu = 0, fu_fp_mul = 0;
    unsigned fu_mem = 0;
    unsigned issued = 0;
    std::uint64_t ready_seen = 0;

    // Visit the ready residents oldest first, 64 ROB slots at a time
    // from the head (slots past the ROB tail hold no bits). A resident
    // is inside the scan cap while its rank among the unissued
    // residents at scan start is below the cap; each window's bits are
    // read before any of its entries issue, so ranks are those of the
    // scan start. Ranks matter only when some resident lies past the
    // cap, and only in the window that crosses it.
    const bool capped = in_iq > scan_cap;
    std::uint64_t older = 0; // residents older than the window
    for (std::uint64_t base = frontSeq;
         base < robTail && issued < issue_width && older < scan_cap;
         base += 64) {
        std::uint64_t ready = readyBits.window(base);
        std::uint64_t crossing = 0; // residents, if the cap falls here
        unsigned here = 0;
        if (capped) {
            const std::uint64_t resident = unissuedBits.window(base);
            here = popcount64(resident);
            if (older + here > scan_cap)
                crossing = resident;
        }
        for (; ready != 0 && issued < issue_width; ready &= ready - 1) {
            const unsigned bit = __builtin_ctzll(ready);
            if (crossing != 0 &&
                older + popcount64(crossing &
                                   ((std::uint64_t{1} << bit) - 1)) >=
                    scan_cap)
                break;
            const std::uint64_t cur = base + bit;
            const MicroOp &op = (*ops)[cur];
            ++ready_seen;

            // Per-class functional unit limits.
            bool fu_ok = true;
            switch (op.cls) {
              case InstrClass::IntAlu:
              case InstrClass::Branch:
              case InstrClass::Call:
              case InstrClass::Return:
                fu_ok = fu_int_alu < cfg.intAluCount;
                if (fu_ok)
                    ++fu_int_alu;
                break;
              case InstrClass::IntMul:
                fu_ok = fu_int_mul < cfg.intMulCount;
                if (fu_ok)
                    ++fu_int_mul;
                break;
              case InstrClass::FpAlu:
                fu_ok = fu_fp_alu < cfg.fpAluCount;
                if (fu_ok)
                    ++fu_fp_alu;
                break;
              case InstrClass::FpMul:
                fu_ok = fu_fp_mul < cfg.fpMulCount;
                if (fu_ok)
                    ++fu_fp_mul;
                break;
              case InstrClass::Load:
              case InstrClass::Store:
                fu_ok = fu_mem < cfg.memPortCount;
                if (fu_ok)
                    ++fu_mem;
                break;
            }
            if (!fu_ok)
                continue;

            // Issue.
            unsigned lat;
            switch (op.cls) {
              case InstrClass::Load:
                lat = loadLatency(op.effAddr);
                ++activity.issuedMem;
                break;
              case InstrClass::Store:
                lat = 1; // address generation; data written at commit
                ++activity.issuedMem;
                break;
              case InstrClass::IntMul:
                lat = executionLatency(op.cls);
                ++activity.issuedIntMul;
                break;
              case InstrClass::FpAlu:
                lat = executionLatency(op.cls);
                ++activity.issuedFpAlu;
                break;
              case InstrClass::FpMul:
                lat = executionLatency(op.cls);
                ++activity.issuedFpMul;
                break;
              case InstrClass::Branch:
              case InstrClass::Call:
              case InstrClass::Return:
                lat = executionLatency(op.cls);
                ++activity.issuedControl;
                break;
              default:
                lat = executionLatency(op.cls);
                ++activity.issuedIntAlu;
                break;
            }
            if (lat < 1)
                lat = 1;
            const std::uint64_t done_at = cycle + lat;
            completeCycle(cur) = done_at;
            completions.schedule(cycle, done_at, cur);

            // Operand reads / result write accounting.
            if (op.dep1)
                ++activity.regReads;
            if (op.dep2)
                ++activity.regReads;
            if (op.cls != InstrClass::Store && !isControl(op.cls))
                ++activity.regWrites;

            // Free the IQ slot.
            unissuedBits.reset(cur);
            readyBits.reset(cur);
            assert(iqOcc > 0);
            --iqOcc;
            iqAvfAcc.release(ace.iqWaiting(op.cls));

            // A mispredicted branch un-blocks fetch when it resolves.
            if (cur == resolveSeq) {
                resolveSeq = kNoSeq;
                fetchBlockedUntil = std::max(
                    fetchBlockedUntil, done_at + cfg.frontEndDepth);
            }
            ++issued;
        }
        older += here;
    }

    lastReadyCount = ready_seen;
    // Residents past the cap count as waiting, except that a scan
    // which stops at the cap rather than at the issue width counted
    // the first of them as scanned, as the resident walk did.
    lastWaitingCount =
        in_iq - ready_seen - (capped && issued < issue_width ? 1 : 0);
    ++issueScans;
    if (ready_seen == 0) {
        ++idleIssueScans;
        issueIdle = true;
    }
}

void
Pipeline::doDispatch()
{
    if (dvmCtl.enabled() &&
        dvmCtl.shouldStallDispatch(iqAvfAcc.occupancy(),
                                   lastWaitingCount, lastReadyCount,
                                   cycle < l2MissOutstandingUntil))
        return;

    unsigned done = 0;
    while (done < cfg.fetchWidth && robTail < fetchPos) {
        const MicroOp &op = (*ops)[robTail];
        if (robTail - frontSeq >= cfg.robSize)
            break;
        if (iqOcc >= cfg.iqSize)
            break;
        bool mem = isMem(op.cls);
        if (mem && lsqOcc >= cfg.lsqSize)
            break;

        ++iqOcc;
        iqAvfAcc.occupy(ace.iqWaiting(op.cls));
        robAvfAcc.occupy(ace.robInFlight(op.cls));
        if (mem) {
            ++lsqOcc;
            lsqAvfAcc.occupy(ace.lsq(op.cls));
        }
        ++activity.dispatched;
        completeA[robTail & slotMask] = ~0ull;
        enterIq(robTail, op);
        ++robTail;
        ++done;
    }
}

void
Pipeline::doFetch()
{
    if (resolveSeq != kNoSeq || cycle < fetchBlockedUntil)
        return;

    const std::size_t fq_cap = 2 * cfg.fetchWidth;
    unsigned fetched = 0;
    while (fetched < cfg.fetchWidth && fetchPos - robTail < fq_cap) {
        assert(fetchPos < ops->size());
        const MicroOp &op = (*ops)[fetchPos];

        // Instruction cache: one access per new line.
        std::uint64_t line = il1LinePow2 ? op.pc >> il1LineShift
                                         : op.pc / cfg.il1LineBytes;
        bool stop_after = false;
        if (line != lastFetchLine) {
            lastFetchLine = line;
            ++activity.il1Accesses;
            std::uint64_t page = pagePow2 ? op.pc >> pageShift
                                          : op.pc / cfg.pageBytes;
            if (page != lastFetchPage) {
                lastFetchPage = page;
                ++activity.itlbAccesses;
                if (!itlb.access(op.pc)) {
                    ++activity.itlbMisses;
                    fetchBlockedUntil = std::max(
                        fetchBlockedUntil, cycle + cfg.tlbMissLat);
                    stop_after = true;
                }
            }
            if (!il1Cache.access(op.pc)) {
                ++activity.il1Misses;
                ++activity.l2Accesses;
                unsigned lat;
                if (!l2Cache.access(op.pc)) {
                    ++activity.l2Misses;
                    ++activity.memAccesses;
                    lat = cfg.l2Lat + cfg.memLat;
                } else {
                    lat = cfg.l2Lat;
                }
                fetchBlockedUntil = std::max(fetchBlockedUntil,
                                             cycle + lat);
                stop_after = true;
            }
        }

        // Control prediction.
        if (isControl(op.cls)) {
            if (op.cls == InstrClass::Branch) {
                ++activity.bpredLookups;
                ++bpStats.lookups;
                bool predicted =
                    gshare.predictThenUpdate(op.pc, op.branchTaken);
                if (predicted != op.branchTaken) {
                    ++bpStats.directionMispredicts;
                    ++activity.bpredMispredicts;
                    resolveSeq = fetchPos;
                    stop_after = true;
                } else if (op.branchTaken) {
                    ++activity.btbLookups;
                    std::uint64_t target = 0;
                    bool hit = btb.lookup(op.pc, target) &&
                               target == op.branchTarget;
                    if (!hit) {
                        ++bpStats.targetMispredicts;
                        fetchBlockedUntil = std::max(
                            fetchBlockedUntil,
                            cycle + cfg.btbMissPenalty);
                        stop_after = true;
                    }
                    btb.update(op.pc, op.branchTarget);
                    // A taken branch ends the fetch group.
                    stop_after = true;
                }
            } else if (op.cls == InstrClass::Call) {
                ras.push(op.pc + 4);
                ++activity.btbLookups;
                std::uint64_t target = 0;
                if (!btb.lookup(op.pc, target)) {
                    fetchBlockedUntil = std::max(
                        fetchBlockedUntil, cycle + cfg.btbMissPenalty);
                    stop_after = true;
                }
                btb.update(op.pc, op.branchTarget);
            } else { // Return
                std::uint64_t target = 0;
                if (!ras.pop(target)) {
                    ++bpStats.rasUnderflows;
                    fetchBlockedUntil = std::max(
                        fetchBlockedUntil, cycle + cfg.frontEndDepth);
                    stop_after = true;
                }
            }
        }

        ++fetchPos;
        ++activity.fetched;
        ++fetched;
        if (stop_after)
            break;
    }
}

void
Pipeline::cycleOnce()
{
    doCompletions();
    doCommit();
    doIssue();
    doDispatch();
    doFetch();

    // End-of-cycle accounting.
    activity.iqOccupancySum += iqOcc;
    activity.robOccupancySum += robTail - frontSeq;
    activity.lsqOccupancySum += lsqOcc;
    iqAvfAcc.tick();
    robAvfAcc.tick();
    lsqAvfAcc.tick();
    ++activity.cycles;
    ++cycle;
}

std::uint64_t
Pipeline::idleCycles()
{
    // Each stage in turn must be provably inert at the current cycle
    // AND stay inert until some explicit bound — otherwise 0. All the
    // state the checks read is frozen across inert cycles: commit,
    // issue, dispatch and fetch are the only mutators, and each is
    // blocked below. The DVM controller is disabled whenever this
    // runs (setIdleSkip), so dispatch gating never observes a cycle.

    // Commit: the head must be absent, unissued, or incomplete.
    if (frontSeq < robTail && completeCycle(frontSeq) <= cycle)
        return 0;

    // Issue: idle (or an empty IQ) until a ready bit is set, which
    // only a completion (bounded below) or a dispatch does.
    if (iqOcc > 0 && !issueIdle)
        return 0;

    // Dispatch: the in-order front must be blocked by a full
    // downstream structure (the loop stops at the first such entry).
    if (robTail < fetchPos) {
        if (robTail - frontSeq < cfg.robSize && iqOcc < cfg.iqSize &&
            !(isMem((*ops)[robTail].cls) && lsqOcc >= cfg.lsqSize))
            return 0;
    }

    // Fetch: blocked on a mispredict resolution (cleared only by
    // issue, idle above), a full fetch queue (drained only by
    // dispatch, blocked above), or a time bound.
    bool fetch_time_blocked = false;
    if (resolveSeq == kNoSeq && fetchPos - robTail < 2 * cfg.fetchWidth) {
        if (cycle >= fetchBlockedUntil)
            return 0;
        fetch_time_blocked = true;
    }

    // Everything is inert. The machine state cannot change before the
    // earliest of: the next completion event, the fetch unblock.
    // (Completions at the current cycle have not drained yet —
    // cycleOnce does that — so the event scan starts at `cycle` itself
    // and a due event forces a normal cycle.)
    std::uint64_t target = ~0ull;
    if (fetch_time_blocked && fetchBlockedUntil < target)
        target = fetchBlockedUntil;
    std::uint64_t ev = completions.nextEventCycle(cycle, target);
    if (ev == cycle)
        return 0;
    if (ev < target)
        target = ev;
    if (target == ~0ull || target <= cycle)
        return 0; // no provable bound: run the cycle normally
    return target - cycle;
}

void
Pipeline::skipCycles(std::uint64_t k)
{
    // Occupancies are frozen across the skipped range, so the integer
    // sums are exact; the FP AVF accumulation replays the per-cycle
    // adds bitwise (AvfAccumulator::tickMany).
    activity.iqOccupancySum += static_cast<std::uint64_t>(iqOcc) * k;
    activity.robOccupancySum +=
        (robTail - frontSeq) * k;
    activity.lsqOccupancySum += static_cast<std::uint64_t>(lsqOcc) * k;
    AvfAccumulator::tickMany(iqAvfAcc, robAvfAcc, lsqAvfAcc, k);
    activity.cycles += k;
    cycle += k;
    idleSkipped += k;
}

void
Pipeline::runInstructions(std::uint64_t count)
{
    committedTarget = totalCommitted + count;
    if (idleSkip) {
        while (totalCommitted < committedTarget) {
            // Cheap pre-filter: unless the issue stage is provably
            // inert (idleCycles' own second test), the cycle is
            // active and the full check would just re-derive that.
            // Skipping the check never changes results — a normal
            // cycle is always the ground truth.
            if (iqOcc == 0 || issueIdle) {
                std::uint64_t k = idleCycles();
                if (k > 0) {
                    skipCycles(k);
                    continue;
                }
            }
            cycleOnce();
        }
        return;
    }
    while (totalCommitted < committedTarget)
        cycleOnce();
}

AvfSample
Pipeline::intervalAvf() const
{
    AvfSample s;
    s.iq = iqAvfAcc.value();
    s.rob = robAvfAcc.value();
    s.lsq = lsqAvfAcc.value();
    return s;
}

void
Pipeline::resetInterval()
{
    activity.reset();
    iqAvfAcc.resetWindow();
    robAvfAcc.resetWindow();
    lsqAvfAcc.resetWindow();
}

} // namespace wavedyn
