#include "trace/trace_io.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/logging.hh"

namespace oova
{

namespace
{

// Version 2 added the gather/scatter index-pattern fields.
constexpr char kMagic[8] = {'O', 'O', 'V', 'A', 'T', 'R', 'C', '2'};

/**
 * Bytes of one encoded instruction record, field by field in
 * encodeRecord() order: pc, op, dst, numSrc, src[], vl, strideBytes,
 * addr, regionBytes, elemSize, idxPattern, idxParam, idxSeed, taken,
 * target, isSpill.
 */
constexpr size_t kRecordBytes = 8 + 1 + 2 + 1 + 2 * kMaxSrcRegs + 2 + 8 +
                                8 + 4 + 1 + 1 + 4 + 8 + 1 + 8 + 1;

/** Most records loadTrace() reserves room for before reading them. */
constexpr uint64_t kMaxReserveRecords = 1u << 20;

/** Records encoded per buffer handed to a sink. */
constexpr size_t kChunkRecords = 64;

/** Store @p value little-endian at @p p, regardless of host order. */
template <typename T>
unsigned char *
put(unsigned char *p, T value)
{
    auto u = static_cast<uint64_t>(value);
    for (size_t i = 0; i < sizeof(T); ++i)
        p[i] = static_cast<unsigned char>((u >> (8 * i)) & 0xff);
    return p + sizeof(T);
}

/** Load a little-endian @p T from @p p. */
template <typename T>
T
get(const unsigned char *p)
{
    uint64_t u = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
        u |= static_cast<uint64_t>(p[i]) << (8 * i);
    return static_cast<T>(u);
}

/** Load a little-endian @p T from @p p and step @p p past it. */
template <typename T>
T
take(const unsigned char *&p)
{
    T value = get<T>(p);
    p += sizeof(T);
    return value;
}

unsigned char *
putReg(unsigned char *p, const RegId &r)
{
    p = put<uint8_t>(p, static_cast<uint8_t>(r.cls));
    return put<uint8_t>(p, r.idx);
}

bool
getReg(const unsigned char *&p, RegId &r)
{
    uint8_t cls = take<uint8_t>(p), idx = take<uint8_t>(p);
    // Validate at the deserialization boundary: register classes
    // and indices are used as unchecked array subscripts everywhere
    // downstream, so a corrupted byte must be rejected here.
    if (cls > static_cast<uint8_t>(RegClass::None))
        return false;
    r.cls = static_cast<RegClass>(cls);
    if (r.cls != RegClass::None && idx >= numLogicalRegs(r.cls))
        return false;
    r.idx = idx;
    return true;
}

/**
 * The one record codec: @p inst as kRecordBytes little-endian bytes,
 * in this field order. saveTrace(), loadTrace() and
 * traceContentHash() all go through encodeRecord()/decodeRecord().
 */
void
encodeRecord(const DynInst &inst, unsigned char *p)
{
    p = put<uint64_t>(p, inst.pc);
    p = put<uint8_t>(p, static_cast<uint8_t>(inst.op));
    p = putReg(p, inst.dst);
    p = put<uint8_t>(p, inst.numSrc);
    for (unsigned i = 0; i < kMaxSrcRegs; ++i)
        p = putReg(p, inst.src[i]);
    p = put<uint16_t>(p, inst.vl);
    p = put<int64_t>(p, inst.strideBytes);
    p = put<uint64_t>(p, inst.addr);
    p = put<uint32_t>(p, inst.regionBytes);
    p = put<uint8_t>(p, inst.elemSize);
    p = put<uint8_t>(p, static_cast<uint8_t>(inst.idxPattern));
    p = put<uint32_t>(p, inst.idxParam);
    p = put<uint64_t>(p, inst.idxSeed);
    p = put<uint8_t>(p, inst.taken ? 1 : 0);
    p = put<uint64_t>(p, inst.target);
    put<uint8_t>(p, inst.isSpill ? 1 : 0);
}

/** Inverse of encodeRecord(); false if any field is out of range. */
bool
decodeRecord(const unsigned char *p, DynInst &inst)
{
    inst.pc = take<uint64_t>(p);
    uint8_t op = take<uint8_t>(p);
    // Validate at the deserialization boundary: traits() is an
    // unchecked table lookup on the hot path, so a corrupted opcode
    // byte must be rejected here, not deep in a simulator.
    if (op >= kNumOpcodes)
        return false;
    inst.op = static_cast<Opcode>(op);
    if (!getReg(p, inst.dst))
        return false;
    // Same boundary rule: numSrc bounds every src[] loop in the
    // simulators (the array holds kMaxSrcRegs entries).
    inst.numSrc = take<uint8_t>(p);
    if (inst.numSrc > kMaxSrcRegs)
        return false;
    for (unsigned i = 0; i < kMaxSrcRegs; ++i)
        if (!getReg(p, inst.src[i]))
            return false;
    inst.vl = take<uint16_t>(p);
    inst.strideBytes = take<int64_t>(p);
    inst.addr = take<uint64_t>(p);
    inst.regionBytes = take<uint32_t>(p);
    inst.elemSize = take<uint8_t>(p);
    uint8_t ipat = take<uint8_t>(p);
    if (ipat > static_cast<uint8_t>(IndexPattern::Random))
        return false;
    inst.idxPattern = static_cast<IndexPattern>(ipat);
    inst.idxParam = take<uint32_t>(p);
    inst.idxSeed = take<uint64_t>(p);
    inst.taken = take<uint8_t>(p) != 0;
    inst.target = take<uint64_t>(p);
    inst.isSpill = take<uint8_t>(p) != 0;
    return true;
}

/** The header: magic/version, name length, name, record count. */
std::string
encodeHeader(const Trace &trace)
{
    const std::string &name = trace.name();
    std::string out(sizeof(kMagic) + 4 + name.size() + 8, '\0');
    auto *p = reinterpret_cast<unsigned char *>(out.data());
    std::memcpy(p, kMagic, sizeof(kMagic));
    p = put<uint32_t>(p + sizeof(kMagic),
                      static_cast<uint32_t>(name.size()));
    std::memcpy(p, name.data(), name.size());
    put<uint64_t>(p + name.size(), trace.size());
    return out;
}

/**
 * Hand @p sink the serialized trace — header, then every record — in
 * buffers of up to kChunkRecords records each. saveTrace()
 * writes them and traceContentHash() hashes them, so both see the
 * same bytes by construction.
 */
template <typename Sink>
void
encodeTrace(const Trace &trace, Sink &&sink)
{
    std::string header = encodeHeader(trace);
    sink(reinterpret_cast<const unsigned char *>(header.data()),
         header.size());
    unsigned char chunk[kChunkRecords * kRecordBytes];
    size_t filled = 0;
    for (const DynInst &inst : trace) {
        encodeRecord(inst, chunk + filled * kRecordBytes);
        if (++filled == kChunkRecords) {
            sink(chunk, sizeof(chunk));
            filled = 0;
        }
    }
    if (filled)
        sink(chunk, filled * kRecordBytes);
}

/**
 * Streaming XXH64 (the 64-bit xxHash algorithm, seed 0): four
 * accumulator lanes take one little-endian 64-bit word each per
 * 32-byte stripe, and the digest folds the lanes, the length and
 * the tail through a final avalanche.
 */
class Xxh64
{
  public:
    void
    update(const unsigned char *p, size_t n)
    {
        total_ += n;
        if (held_) {
            size_t take = std::min(n, kStripe - held_);
            std::memcpy(buf_ + held_, p, take);
            held_ += take;
            p += take;
            n -= take;
            if (held_ < kStripe)
                return;
            stripe(buf_);
            held_ = 0;
        }
        for (; n >= kStripe; p += kStripe, n -= kStripe)
            stripe(p);
        std::memcpy(buf_, p, n);
        held_ = n;
    }

    uint64_t
    digest() const
    {
        uint64_t h;
        if (total_ >= kStripe) {
            h = rotl(lane_[0], 1) + rotl(lane_[1], 7) +
                rotl(lane_[2], 12) + rotl(lane_[3], 18);
            for (uint64_t v : lane_)
                h = (h ^ round(0, v)) * kP1 + kP4;
        } else {
            h = kP5;
        }
        h += total_;
        const unsigned char *p = buf_;
        size_t n = held_;
        for (; n >= 8; p += 8, n -= 8)
            h = rotl(h ^ round(0, get<uint64_t>(p)), 27) * kP1 + kP4;
        if (n >= 4) {
            h = rotl(h ^ get<uint32_t>(p) * kP1, 23) * kP2 + kP3;
            p += 4;
            n -= 4;
        }
        for (; n > 0; ++p, --n)
            h = rotl(h ^ *p * kP5, 11) * kP1;
        h ^= h >> 33;
        h *= kP2;
        h ^= h >> 29;
        h *= kP3;
        h ^= h >> 32;
        return h;
    }

  private:
    static constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
    static constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
    static constexpr uint64_t kP3 = 0x165667b19e3779f9ull;
    static constexpr uint64_t kP4 = 0x85ebca77c2b2ae63ull;
    static constexpr uint64_t kP5 = 0x27d4eb2f165667c5ull;
    static constexpr size_t kStripe = 32;

    static uint64_t
    rotl(uint64_t x, int r)
    {
        return (x << r) | (x >> (64 - r));
    }

    static uint64_t
    round(uint64_t acc, uint64_t word)
    {
        return rotl(acc + word * kP2, 31) * kP1;
    }

    void
    stripe(const unsigned char *p)
    {
        for (int i = 0; i < 4; ++i)
            lane_[i] = round(lane_[i], get<uint64_t>(p + 8 * i));
    }

    uint64_t lane_[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
    unsigned char buf_[kStripe] = {};
    size_t held_ = 0;
    uint64_t total_ = 0;
};

} // namespace

bool
saveTrace(const Trace &trace, std::ostream &os)
{
    encodeTrace(trace, [&os](const unsigned char *p, size_t n) {
        os.write(reinterpret_cast<const char *>(p),
                 static_cast<std::streamsize>(n));
    });
    return static_cast<bool>(os);
}

bool
saveTraceFile(const Trace &trace, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    return saveTrace(trace, os);
}

bool
loadTrace(Trace &out, std::istream &is)
{
    out = Trace();

    unsigned char head[sizeof(kMagic) + 4];
    if (!is.read(reinterpret_cast<char *>(head), sizeof(head)) ||
        std::memcmp(head, kMagic, sizeof(kMagic)) != 0) {
        return false;
    }

    uint32_t name_len = get<uint32_t>(head + sizeof(kMagic));
    if (name_len > (1u << 20))
        return false;
    std::string name(name_len, '\0');
    if (!is.read(name.data(), name_len))
        return false;
    out.setName(name);

    unsigned char countBytes[8];
    if (!is.read(reinterpret_cast<char *>(countBytes), sizeof(countBytes)))
        return false;
    uint64_t count = get<uint64_t>(countBytes);
    // The count is outside input: a corrupted one must end in a
    // failed read below, not in a huge up-front allocation.
    out.reserve(std::min<uint64_t>(count, kMaxReserveRecords));

    unsigned char record[kRecordBytes];
    for (uint64_t n = 0; n < count; ++n) {
        DynInst inst;
        if (!is.read(reinterpret_cast<char *>(record), sizeof(record)) ||
            !decodeRecord(record, inst)) {
            out = Trace();
            return false;
        }
        out.push(inst);
    }
    return true;
}

bool
loadTraceFile(Trace &out, const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    return loadTrace(out, is);
}

uint64_t
traceContentHash(const Trace &trace)
{
    Xxh64 hash;
    encodeTrace(trace, [&hash](const unsigned char *p, size_t n) {
        hash.update(p, n);
    });
    return hash.digest();
}

} // namespace oova
