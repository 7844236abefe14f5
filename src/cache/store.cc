#include "cache/store.hh"

#include "telemetry/telemetry.hh"
#include "util/atomic_file.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <system_error>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace fs = std::filesystem;

namespace wavedyn
{

namespace
{

constexpr char kMagic[4] = {'W', 'D', 'R', 'C'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr char kEntrySuffix[] = ".wdr";
constexpr std::uint64_t kChecksumBasis = 0xcbf29ce484222325ull;

// Record limits: a sim-version tag is a short identifier and a payload
// is bounded by interval count; anything outside these is a corrupt
// length field, rejected before allocating.
constexpr std::uint64_t kMaxVersionBytes = 256;
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 32;

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putDouble(std::string &out, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

/** Little-endian reader over a byte string; `ok` latches any overrun. */
struct ByteReader
{
    const std::string &buf;
    std::size_t pos = 0;
    bool ok = true;

    bool take(std::size_t n)
    {
        if (!ok || buf.size() - pos < n || pos > buf.size()) {
            ok = false;
            return false;
        }
        return true;
    }

    std::uint32_t u32()
    {
        if (!take(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(buf[pos + i]))
                 << (8 * i);
        pos += 4;
        return v;
    }

    std::uint64_t u64()
    {
        if (!take(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(buf[pos + i]))
                 << (8 * i);
        pos += 8;
        return v;
    }

    double f64()
    {
        std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string bytes(std::size_t n)
    {
        if (!take(n))
            return {};
        std::string v = buf.substr(pos, n);
        pos += n;
        return v;
    }
};

std::string
encodePayload(const SimResult &result)
{
    std::string p;
    p.reserve(64 + result.intervals.size() * 12 * 8);
    putU64(p, result.intervals.size());
    for (const IntervalSample &s : result.intervals) {
        putDouble(p, s.cpi);
        putDouble(p, s.ipc);
        putDouble(p, s.power);
        putDouble(p, s.avf);
        putDouble(p, s.iqAvf);
        putDouble(p, s.robAvf);
        putDouble(p, s.lsqAvf);
        putDouble(p, s.dl1MissRate);
        putDouble(p, s.l2MissRate);
        putDouble(p, s.bpredMissRate);
        putU64(p, s.cycles);
        putU64(p, s.instructions);
    }
    putU64(p, result.totalCycles);
    putU64(p, result.totalInstructions);
    putU64(p, result.dvmStats.samples);
    putU64(p, result.dvmStats.triggers);
    putU64(p, result.dvmStats.stallL2Cycles);
    putU64(p, result.dvmStats.stallRatioCycles);
    putDouble(p, result.dvmFinalWqRatio);
    return p;
}

std::optional<SimResult>
decodePayload(const std::string &payload)
{
    ByteReader r{payload};
    std::uint64_t n = r.u64();
    // Each interval is 12 little-endian u64 fields; an n the payload
    // cannot possibly hold is a corrupt count, rejected pre-alloc.
    if (!r.ok || n > payload.size() / (12 * 8))
        return std::nullopt;
    SimResult result;
    result.intervals.resize(static_cast<std::size_t>(n));
    for (IntervalSample &s : result.intervals) {
        s.cpi = r.f64();
        s.ipc = r.f64();
        s.power = r.f64();
        s.avf = r.f64();
        s.iqAvf = r.f64();
        s.robAvf = r.f64();
        s.lsqAvf = r.f64();
        s.dl1MissRate = r.f64();
        s.l2MissRate = r.f64();
        s.bpredMissRate = r.f64();
        s.cycles = r.u64();
        s.instructions = r.u64();
    }
    result.totalCycles = r.u64();
    result.totalInstructions = r.u64();
    result.dvmStats.samples = r.u64();
    result.dvmStats.triggers = r.u64();
    result.dvmStats.stallL2Cycles = r.u64();
    result.dvmStats.stallRatioCycles = r.u64();
    result.dvmFinalWqRatio = r.f64();
    if (!r.ok || r.pos != payload.size())
        return std::nullopt;
    return result;
}

/**
 * Parse the record envelope: magic/format/version/size/payload/
 * checksum. On success fills @p version and @p payload; any defect
 * returns false.
 */
bool
openRecord(const std::string &bytes, std::string &version,
           std::string &payload)
{
    ByteReader r{bytes};
    std::string magic = r.bytes(4);
    if (!r.ok || std::memcmp(magic.data(), kMagic, 4) != 0)
        return false;
    if (r.u32() != kFormatVersion || !r.ok)
        return false;
    std::uint64_t versionLen = r.u64();
    if (!r.ok || versionLen > kMaxVersionBytes)
        return false;
    version = r.bytes(static_cast<std::size_t>(versionLen));
    std::uint64_t payloadLen = r.u64();
    if (!r.ok || payloadLen > kMaxPayloadBytes)
        return false;
    payload = r.bytes(static_cast<std::size_t>(payloadLen));
    std::uint64_t checksum = r.u64();
    if (!r.ok || r.pos != bytes.size())
        return false;
    return checksum == fnv1a64(payload, kChecksumBasis);
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (in.bad())
        return false;
    out = std::move(data);
    return true;
}

bool
recordValid(const std::string &path, const std::string &simVersion,
            bool &versionMatch)
{
    versionMatch = false;
    std::string bytes;
    if (!readFile(path, bytes))
        return false;
    std::string version, payload;
    if (!openRecord(bytes, version, payload))
        return false;
    if (!decodePayload(payload))
        return false;
    versionMatch = version == simVersion;
    return true;
}

std::mutex activeCacheMutex;
std::shared_ptr<ResultCache> activeCache;

} // namespace

std::string
encodeSimResult(const SimResult &result, const std::string &simVersion)
{
    std::string payload = encodePayload(result);
    std::string out;
    out.reserve(4 + 4 + 8 + simVersion.size() + 8 + payload.size() + 8);
    out.append(kMagic, 4);
    putU32(out, kFormatVersion);
    putU64(out, simVersion.size());
    out.append(simVersion);
    putU64(out, payload.size());
    out.append(payload);
    putU64(out, fnv1a64(payload, kChecksumBasis));
    return out;
}

std::int64_t
cacheClockNow()
{
    return std::chrono::duration_cast<std::chrono::seconds>(
               fs::file_time_type::clock::now().time_since_epoch())
        .count();
}

std::optional<SimResult>
decodeSimResult(const std::string &bytes, const std::string &simVersion)
{
    std::string version, payload;
    if (!openRecord(bytes, version, payload))
        return std::nullopt;
    if (version != simVersion)
        return std::nullopt;
    return decodePayload(payload);
}

ResultCache::ResultCache(std::string root, std::string simVersion)
    : rootDir(std::move(root)), version(std::move(simVersion))
{
}

std::string
ResultCache::entryPath(const CacheKey &key) const
{
    std::string hex = key.hex();
    return rootDir + "/" + hex.substr(0, 2) + "/" + hex.substr(2, 2) +
           "/" + hex + kEntrySuffix;
}

namespace
{

/** Interned once; recording is relaxed atomic adds (telemetry
 *  observes the cache, it never participates in it). */
struct CacheIoMetrics
{
    MetricId loadUs;   //!< whole load: read + decode
    MetricId decodeUs; //!< decode alone, to split I/O from codec cost

    static const CacheIoMetrics &
    get()
    {
        static CacheIoMetrics m = [] {
            auto &reg = metricsRegistry();
            CacheIoMetrics c;
            c.loadUs = reg.histogram("cache.load_us");
            c.decodeUs = reg.histogram("cache.decode_us");
            return c;
        }();
        return m;
    }
};

} // namespace

std::optional<SimResult>
ResultCache::load(const CacheKey &key)
{
    const CacheIoMetrics &tm = CacheIoMetrics::get();
    std::uint64_t loadStart = telemetryNowUs();
    std::optional<SimResult> result;
    std::string bytes;
    if (!readFile(entryPath(key), bytes)) {
        nMisses.fetch_add(1, std::memory_order_relaxed);
    } else {
        std::uint64_t decodeStart = telemetryNowUs();
        result = decodeSimResult(bytes, version);
        metricsRegistry().observe(tm.decodeUs,
                                  telemetryNowUs() - decodeStart);
        if (!result) {
            nBad.fetch_add(1, std::memory_order_relaxed);
            nMisses.fetch_add(1, std::memory_order_relaxed);
        } else {
            nHits.fetch_add(1, std::memory_order_relaxed);
        }
    }
    metricsRegistry().observe(tm.loadUs, telemetryNowUs() - loadStart);
    return result;
}

bool
ResultCache::store(const CacheKey &key, const SimResult &result)
{
    std::string finalPath = entryPath(key);
    std::error_code ec;
    fs::create_directories(fs::path(finalPath).parent_path(), ec);
    if (ec ||
        !writeFileAtomic(finalPath, encodeSimResult(result, version))) {
        nStoreFailures.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    nStores.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
ResultCache::probeWritable() const
{
    std::error_code ec;
    fs::create_directories(rootDir, ec);
    if (ec)
        return false;
    char probeName[64];
    std::snprintf(probeName, sizeof(probeName), ".probe.%llu",
                  static_cast<unsigned long long>(getpid()));
    std::string probePath = (fs::path(rootDir) / probeName).string();
    if (!writeFileAtomic(probePath, "wavedyn"))
        return false;
    fs::remove(probePath, ec);
    return true;
}

ResultCacheStats
ResultCache::stats() const
{
    ResultCacheStats s;
    s.hits = nHits.load(std::memory_order_relaxed);
    s.misses = nMisses.load(std::memory_order_relaxed);
    s.badEntries = nBad.load(std::memory_order_relaxed);
    s.stores = nStores.load(std::memory_order_relaxed);
    s.storeFailures = nStoreFailures.load(std::memory_order_relaxed);
    return s;
}

std::vector<CacheEntryInfo>
ResultCache::scan() const
{
    std::vector<CacheEntryInfo> entries;
    std::error_code ec;
    fs::recursive_directory_iterator it(rootDir, ec), end;
    if (ec)
        return entries;
    for (; it != end; it.increment(ec)) {
        if (ec)
            break;
        if (!it->is_regular_file(ec) || ec)
            continue;
        std::string path = it->path().string();
        std::string name = it->path().filename().string();
        if (name.size() < sizeof(kEntrySuffix) ||
            name.compare(name.size() - 4, 4, kEntrySuffix) != 0)
            continue;
        CacheEntryInfo info;
        info.path = path;
        info.bytes = it->file_size(ec);
        if (ec)
            continue;
        auto mtime = fs::last_write_time(path, ec);
        if (ec)
            continue;
        info.mtime = std::chrono::duration_cast<std::chrono::seconds>(
                         mtime.time_since_epoch())
                         .count();
        info.valid = recordValid(path, version, info.versionMatch);
        entries.push_back(std::move(info));
    }
    return entries;
}

CacheUsage
ResultCache::usage() const
{
    CacheUsage u;
    for (const CacheEntryInfo &e : scan()) {
        ++u.entries;
        u.bytes += e.bytes;
        if (!e.valid)
            ++u.invalidEntries;
        else if (!e.versionMatch)
            ++u.otherVersionEntries;
    }
    return u;
}

CacheGcResult
ResultCache::gc(std::uint64_t maxAgeSeconds, std::uint64_t maxBytes,
                std::int64_t now)
{
    std::vector<CacheEntryInfo> entries = scan();
    CacheGcResult r;
    r.scanned = entries.size();

    std::error_code ec;
    std::vector<CacheEntryInfo> kept;
    for (CacheEntryInfo &e : entries) {
        bool remove = false;
        std::uint64_t *bucket = nullptr;
        if (!e.valid) {
            remove = true;
            bucket = &r.removedInvalid;
        } else if (maxAgeSeconds != 0 && e.mtime <= now &&
                   static_cast<std::uint64_t>(now) -
                           static_cast<std::uint64_t>(e.mtime) >
                       maxAgeSeconds) {
            // Strictly-older-than: an entry exactly at or newer than
            // the threshold is never deleted by the age rule. Entries
            // with future mtimes (clock skew between hosts sharing
            // one cache dir) have no age at all; the unsigned
            // subtraction is guarded so a huge maxAgeSeconds cannot
            // wrap into a signed comparison that deletes everything.
            remove = true;
            bucket = &r.removedAge;
        }
        if (remove) {
            if (fs::remove(e.path, ec) && !ec) {
                ++*bucket;
                r.bytesFreed += e.bytes;
            }
        } else {
            kept.push_back(std::move(e));
        }
    }

    std::uint64_t totalBytes = 0;
    for (const CacheEntryInfo &e : kept)
        totalBytes += e.bytes;

    if (maxBytes != 0 && totalBytes > maxBytes) {
        std::sort(kept.begin(), kept.end(),
                  [](const CacheEntryInfo &a, const CacheEntryInfo &b) {
                      if (a.mtime != b.mtime)
                          return a.mtime < b.mtime;
                      return a.path < b.path; // deterministic tiebreak
                  });
        for (const CacheEntryInfo &e : kept) {
            if (totalBytes <= maxBytes)
                break;
            if (fs::remove(e.path, ec) && !ec) {
                ++r.removedSize;
                r.bytesFreed += e.bytes;
                totalBytes -= e.bytes;
            }
        }
    }
    r.bytesRemaining = totalBytes;
    return r;
}

std::shared_ptr<ResultCache>
activeResultCache()
{
    std::lock_guard<std::mutex> lock(activeCacheMutex);
    return activeCache;
}

void
setActiveResultCache(std::shared_ptr<ResultCache> cache)
{
    std::lock_guard<std::mutex> lock(activeCacheMutex);
    activeCache = std::move(cache);
}

} // namespace wavedyn
