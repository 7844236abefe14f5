#include "sim/pipeline.hh"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace wavedyn
{

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
      window(cfg.robSize),
      fetchQueue(2 * cfg.fetchWidth),
      // Longest schedulable latency: a load missing DTLB, DL1 and L2.
      // Fixed execution latencies are far shorter; the queue grows on
      // demand should a configuration ever exceed the bound.
      completions(cfg.dl1Lat + cfg.tlbMissLat + cfg.l2Lat + cfg.memLat +
                  16),
      ops(&ops)
{
    scanSlotMask = window.capacity() - 1;
    readyAtA.assign(scanSlotMask + 1, 0);
    waitA.assign(scanSlotMask + 1, Waiter{});
    iqSeqA.reserve(256 + cfg.iqSize);
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

Pipeline::InFlight *
Pipeline::entryFor(std::uint64_t seq)
{
    if (seq < frontSeq)
        return nullptr;
    std::uint64_t idx = seq - frontSeq;
    if (idx >= window.size())
        return nullptr;
    return &window[idx];
}

void
Pipeline::iqListAppend(InFlight &e)
{
    // Resolve the producers once: committed means ready, issued means
    // ready at its completeCycle, unissued means pending until it
    // issues (and then wakeConsumers() folds its completeCycle in).
    const std::size_t slot = e.seq & scanSlotMask;
    Waiter &w = waitA[slot];
    w = Waiter{};
    const std::uint32_t deps[2] = {e.op.dep1, e.op.dep2};
    for (unsigned k = 0; k < 2; ++k) {
        if (deps[k] == 0)
            continue;
        std::uint64_t pseq = e.seq - deps[k];
        if (pseq < frontSeq || pseq - frontSeq >= window.size())
            continue; // committed, or before the first instruction
        const InFlight &p = liveEntry(pseq);
        if (p.issued) {
            w.operandsAt = std::max(w.operandsAt, p.completeCycle);
            continue;
        }
        ++w.pending;
        Waiter &pw = waitA[pseq & scanSlotMask];
        w.next[k] = pw.consumers;
        pw.consumers = (e.seq << 1) | k;
    }
    readyAtA[slot] = w.pending > 0 ? kNever : w.operandsAt;

    // Reclaim the dead prefix before the vector grows past a couple
    // of cache lines of garbage; the live span is at most iqSize.
    if (iqStart >= 256) {
        iqSeqA.erase(iqSeqA.begin(),
                     iqSeqA.begin() +
                         static_cast<std::ptrdiff_t>(iqStart));
        iqStart = 0;
    }
    iqSeqA.push_back(e.seq);
}

void
Pipeline::wakeConsumers(const InFlight &e)
{
    for (std::uint64_t l = waitA[e.seq & scanSlotMask].consumers;
         l != kNoLink;) {
        const std::size_t cslot = (l >> 1) & scanSlotMask;
        Waiter &c = waitA[cslot];
        l = c.next[l & 1];
        c.operandsAt = std::max(c.operandsAt, e.completeCycle);
        if (--c.pending == 0)
            readyAtA[cslot] = c.operandsAt;
    }
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
        InFlight *e = entryFor(seq);
        if (!e || e->aceCompleted)
            return;
        e->aceCompleted = true;
        // ROB entry: in-flight ACE state shrinks to the pending result.
        robAvfAcc.release(ace.robInFlight(e->op.cls));
        robAvfAcc.occupy(ace.robCompleted(e->op.cls));
        // Loads free their LSQ slot at writeback.
        if (e->op.cls == InstrClass::Load && e->inLsq) {
            e->inLsq = false;
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
    while (done < cfg.fetchWidth && !window.empty() &&
           totalCommitted < committedTarget) {
        InFlight &e = window.front();
        if (!e.issued || e.completeCycle > cycle)
            break;

        // Stores write the data cache at commit (no stall; write
        // buffering assumed).
        if (e.op.cls == InstrClass::Store) {
            ++activity.dl1Accesses;
            if (!dl1Cache.access(e.op.effAddr)) {
                ++activity.dl1Misses;
                ++activity.l2Accesses;
                if (!l2Cache.access(e.op.effAddr)) {
                    ++activity.l2Misses;
                    ++activity.memAccesses;
                }
            }
            if (e.inLsq) {
                assert(lsqOcc > 0);
                --lsqOcc;
                lsqAvfAcc.release(ace.lsq(InstrClass::Store));
            }
        }

        robAvfAcc.release(e.aceCompleted ? ace.robCompleted(e.op.cls)
                                         : ace.robInFlight(e.op.cls));
        ++activity.committed;
        ++totalCommitted;
        ++done;
        window.pop_front();
        ++frontSeq;
    }
}

void
Pipeline::doIssue()
{
    const unsigned issue_width = cfg.fetchWidth;
    const unsigned scan_cap = std::max(32u, 3 * issue_width);

    if (cycle < issueSleepUntil) {
        // Asleep: every IQ resident is provably unready, so the scan
        // would issue nothing and observe ready=0 and — visiting
        // min(len, cap) entries as waiting, charging the rest to the
        // beyond-cap remainder — a waiting count of len (len <= cap)
        // or len - 1 (len > cap). len is frozen while asleep.
        lastReadyCount = 0;
        lastWaitingCount = iqOcc <= scan_cap
                               ? iqOcc
                               : static_cast<std::uint64_t>(iqOcc) - 1;
        return;
    }

    unsigned fu_int_alu = 0, fu_int_mul = 0;
    unsigned fu_fp_alu = 0, fu_fp_mul = 0;
    unsigned fu_mem = 0;
    unsigned issued = 0, scanned = 0;
    std::uint64_t ready_seen = 0, waiting_seen = 0;
    std::uint64_t wake = kNever; //!< earliest memo among the unready

    // Walk the unissued IQ residents oldest first. The dense array
    // holds exactly the entries the historical full-window walk
    // considered (inIq && !issued), in the same seq order, so the
    // scan cap, FU arbitration and DVM observations are unchanged.
    // An entry is ready exactly when its wakeup memo has passed.
    // Issued entries are removed by compacting in place: survivors
    // are written back through `wr`, and the unvisited tail (early
    // break on the cap or the issue width) is shifted down after the
    // loop.
    std::size_t rd = iqStart, wr = iqStart, len = iqSeqA.size();
    for (; rd < len && issued < issue_width; ++rd) {
        // Fast-forward over runs of waiting entries — the bulk of
        // every scan — four at a time with a single branch. Each quad
        // contributes exactly what four scalar iterations would: four
        // scan slots, four waiting observations, and its earliest
        // memo into the wakeup.
        while (rd + 4 <= len && scanned + 4 <= scan_cap) {
            std::uint64_t n0 = readyAtA[iqSeqA[rd] & scanSlotMask];
            std::uint64_t n1 = readyAtA[iqSeqA[rd + 1] & scanSlotMask];
            std::uint64_t n2 = readyAtA[iqSeqA[rd + 2] & scanSlotMask];
            std::uint64_t n3 = readyAtA[iqSeqA[rd + 3] & scanSlotMask];
            if (!((n0 > cycle) & (n1 > cycle) & (n2 > cycle) &
                  (n3 > cycle)))
                break;
            scanned += 4;
            waiting_seen += 4;
            std::uint64_t m01 = n0 < n1 ? n0 : n1;
            std::uint64_t m23 = n2 < n3 ? n2 : n3;
            std::uint64_t m = m01 < m23 ? m01 : m23;
            if (m < wake)
                wake = m;
            if (wr != rd)
                for (int i = 0; i < 4; ++i)
                    iqSeqA[wr + i] = iqSeqA[rd + i];
            wr += 4;
            rd += 4;
        }
        if (rd >= len)
            break;

        std::uint64_t cur = iqSeqA[rd];
        if (++scanned > scan_cap)
            break;

        std::uint64_t ready_at = readyAtA[cur & scanSlotMask];
        if (ready_at > cycle) {
            ++waiting_seen;
            if (ready_at < wake)
                wake = ready_at;
            iqSeqA[wr++] = cur;
            continue;
        }
        InFlight &e = liveEntry(cur);
        ++ready_seen;

        // Per-class functional unit limits.
        bool fu_ok = true;
        switch (e.op.cls) {
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
        if (!fu_ok) {
            iqSeqA[wr++] = cur;
            continue;
        }

        // Issue.
        unsigned lat;
        switch (e.op.cls) {
          case InstrClass::Load:
            lat = loadLatency(e.op.effAddr);
            ++activity.issuedMem;
            break;
          case InstrClass::Store:
            lat = 1; // address generation; data written at commit
            ++activity.issuedMem;
            break;
          case InstrClass::IntMul:
            lat = executionLatency(e.op.cls);
            ++activity.issuedIntMul;
            break;
          case InstrClass::FpAlu:
            lat = executionLatency(e.op.cls);
            ++activity.issuedFpAlu;
            break;
          case InstrClass::FpMul:
            lat = executionLatency(e.op.cls);
            ++activity.issuedFpMul;
            break;
          case InstrClass::Branch:
          case InstrClass::Call:
          case InstrClass::Return:
            lat = executionLatency(e.op.cls);
            ++activity.issuedControl;
            break;
          default:
            lat = executionLatency(e.op.cls);
            ++activity.issuedIntAlu;
            break;
        }
        if (lat < 1)
            lat = 1;
        e.issued = true;
        e.completeCycle = cycle + lat;
        completions.schedule(cycle, e.completeCycle, e.seq);
        wakeConsumers(e);

        // Operand reads / result write accounting.
        if (e.op.dep1)
            ++activity.regReads;
        if (e.op.dep2)
            ++activity.regReads;
        if (e.op.cls != InstrClass::Store && !isControl(e.op.cls))
            ++activity.regWrites;

        // Free the IQ slot (not writing `cur` back removes it).
        e.inIq = false;
        assert(iqOcc > 0);
        --iqOcc;
        iqAvfAcc.release(ace.iqWaiting(e.op.cls));

        // A mispredicted branch un-blocks fetch when it resolves.
        if (e.mispredicted) {
            fetchWaitingResolve = false;
            fetchBlockedUntil = std::max(
                fetchBlockedUntil,
                e.completeCycle + cfg.frontEndDepth);
        }
        ++issued;
    }

    // Reattach the unvisited tail behind the survivors.
    if (wr != rd) {
        if (wr == iqStart)
            iqStart = rd; // every visited entry issued: just advance
        else {
            // data() + rd, not &v[rd]: rd == len when nothing is
            // left to move, and operator[] may not index there.
            std::memmove(iqSeqA.data() + wr, iqSeqA.data() + rd,
                         (len - rd) * sizeof(iqSeqA[0]));
            iqSeqA.resize(len - (rd - wr));
        }
    }

    lastReadyCount = ready_seen;
    ++issueScans;
    idleIssueScans += ready_seen == 0;
    // Entries beyond the scan cap are assumed waiting.
    std::uint64_t in_iq = iqOcc + issued; // occupancy at scan start
    lastWaitingCount =
        waiting_seen + (in_iq > scanned ? in_iq - scanned : 0);

    // Nothing ready anywhere in the scan: sleep until the earliest
    // memo, the first cycle a scanned entry can issue. An entry with
    // a pending producer wakes only when that producer issues, and
    // the oldest resident's producers have all issued, so its memo is
    // finite. Entries past the scan cap are not visited while the
    // population is frozen, so they cannot issue or change the
    // observations before then.
    if (issued == 0 && ready_seen == 0 && wake != kNever)
        issueSleepUntil = wake;
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
    while (done < cfg.fetchWidth && !fetchQueue.empty()) {
        InFlight &e = fetchQueue.front();
        if (window.size() >= cfg.robSize)
            break;
        if (iqOcc >= cfg.iqSize)
            break;
        bool mem = isMem(e.op.cls);
        if (mem && lsqOcc >= cfg.lsqSize)
            break;

        e.seq = frontSeq + window.size();
        e.inIq = true;
        ++iqOcc;
        iqAvfAcc.occupy(ace.iqWaiting(e.op.cls));
        robAvfAcc.occupy(ace.robInFlight(e.op.cls));
        if (mem) {
            e.inLsq = true;
            ++lsqOcc;
            lsqAvfAcc.occupy(ace.lsq(e.op.cls));
        }
        ++activity.dispatched;
        window.push_back(e);
        iqListAppend(window.back());
        fetchQueue.pop_front();
        ++done;
    }
    // New residents have unknown readiness: wake the issue scan.
    if (done > 0)
        issueSleepUntil = 0;
}

void
Pipeline::doFetch()
{
    if (fetchWaitingResolve || cycle < fetchBlockedUntil)
        return;

    const std::size_t fq_cap = 2 * cfg.fetchWidth;
    unsigned fetched = 0;
    while (fetched < cfg.fetchWidth && fetchQueue.size() < fq_cap) {
        InFlight e;
        assert(fetchPos < ops->size());
        e.op = (*ops)[fetchPos];
        ++fetchPos;

        // Instruction cache: one access per new line.
        std::uint64_t line = il1LinePow2 ? e.op.pc >> il1LineShift
                                         : e.op.pc / cfg.il1LineBytes;
        bool stop_after = false;
        if (line != lastFetchLine) {
            lastFetchLine = line;
            ++activity.il1Accesses;
            std::uint64_t page = pagePow2 ? e.op.pc >> pageShift
                                          : e.op.pc / cfg.pageBytes;
            if (page != lastFetchPage) {
                lastFetchPage = page;
                ++activity.itlbAccesses;
                if (!itlb.access(e.op.pc)) {
                    ++activity.itlbMisses;
                    fetchBlockedUntil = std::max(
                        fetchBlockedUntil, cycle + cfg.tlbMissLat);
                    stop_after = true;
                }
            }
            if (!il1Cache.access(e.op.pc)) {
                ++activity.il1Misses;
                ++activity.l2Accesses;
                unsigned lat;
                if (!l2Cache.access(e.op.pc)) {
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
        if (isControl(e.op.cls)) {
            if (e.op.cls == InstrClass::Branch) {
                ++activity.bpredLookups;
                ++bpStats.lookups;
                bool predicted =
                    gshare.predictThenUpdate(e.op.pc, e.op.branchTaken);
                if (predicted != e.op.branchTaken) {
                    ++bpStats.directionMispredicts;
                    ++activity.bpredMispredicts;
                    e.mispredicted = true;
                    fetchWaitingResolve = true;
                    stop_after = true;
                } else if (e.op.branchTaken) {
                    ++activity.btbLookups;
                    std::uint64_t target = 0;
                    bool hit = btb.lookup(e.op.pc, target) &&
                               target == e.op.branchTarget;
                    if (!hit) {
                        ++bpStats.targetMispredicts;
                        fetchBlockedUntil = std::max(
                            fetchBlockedUntil,
                            cycle + cfg.btbMissPenalty);
                        stop_after = true;
                    }
                    btb.update(e.op.pc, e.op.branchTarget);
                    // A taken branch ends the fetch group.
                    stop_after = true;
                }
            } else if (e.op.cls == InstrClass::Call) {
                ras.push(e.op.pc + 4);
                ++activity.btbLookups;
                std::uint64_t target = 0;
                if (!btb.lookup(e.op.pc, target)) {
                    fetchBlockedUntil = std::max(
                        fetchBlockedUntil, cycle + cfg.btbMissPenalty);
                    stop_after = true;
                }
                btb.update(e.op.pc, e.op.branchTarget);
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

        fetchQueue.push_back(e);
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
    activity.robOccupancySum += window.size();
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
    if (!window.empty()) {
        const InFlight &h = window.front();
        if (h.issued && h.completeCycle <= cycle)
            return 0;
    }

    // Issue: the scan only provably does nothing while asleep (or
    // with an empty IQ); its wakeup is an explicit bound below.
    if (iqOcc > 0 && cycle >= issueSleepUntil)
        return 0;

    // Dispatch: the in-order front must be blocked by a full
    // downstream structure (the loop stops at the first such entry).
    if (!fetchQueue.empty()) {
        const InFlight &f = fetchQueue.front();
        if (window.size() < cfg.robSize && iqOcc < cfg.iqSize &&
            !(isMem(f.op.cls) && lsqOcc >= cfg.lsqSize))
            return 0;
    }

    // Fetch: blocked on a mispredict resolution (cleared only by
    // issue, asleep above), a full fetch queue (drained only by
    // dispatch, blocked above), or a time bound.
    bool fetch_time_blocked = false;
    if (!fetchWaitingResolve &&
        fetchQueue.size() < 2 * cfg.fetchWidth) {
        if (cycle >= fetchBlockedUntil)
            return 0;
        fetch_time_blocked = true;
    }

    // Everything is inert. The machine state cannot change before the
    // earliest of: the next completion event, the issue-sleep wakeup,
    // the fetch unblock. (Completions at the current cycle have not
    // drained yet — cycleOnce does that — so the event scan starts at
    // `cycle` itself and a due event forces a normal cycle.)
    std::uint64_t target = ~0ull;
    if (iqOcc > 0 && issueSleepUntil < target)
        target = issueSleepUntil;
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
        static_cast<std::uint64_t>(window.size()) * k;
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
            if (iqOcc == 0 || cycle < issueSleepUntil) {
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
