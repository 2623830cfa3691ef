// Versioned byte codec for engine_state.
//
// Layout: magic (u64) · format version (u32) · payload length (u64) ·
// FNV-1a checksum of the payload (u64) · payload.  All integers are
// little-endian fixed-width; doubles travel as their IEEE-754 bit
// patterns (bit_cast), so serialization is lossless and deterministic —
// equal states produce equal bytes and save·load·save is the identity.
//
// The payload layout is written down once: one `transfer` overload per
// payload type names its members in wire order, and both directions run
// it — byte_writer reads every member out, byte_reader assigns it.  Each
// member is encoded by its C++ type (byte_writer::field).  The config and
// run_stats rows come from the two field lists in core/engine.hpp, which
// also say which members the payload carries.
//
// Every read is length-checked before it happens and every failure mode
// (bad magic, another format version, truncation, checksum mismatch, an
// enum byte past its type's last value) throws snapshot_error with a
// message naming what was being read — a corrupted file, or one from
// another version, can never walk the decoder into UB.

#include <bit>
#include <concepts>
#include <cstring>
#include <fstream>
#include <string_view>
#include <type_traits>

#include "simcore/rng.hpp"
#include "snapshot/snapshot.hpp"

namespace sci::snapshot {
namespace {

constexpr std::uint64_t snapshot_magic = 0x53434953'4e415031ull;  // "SCISNAP1"
// magic u64 · version u32 · payload length u64 · checksum u64
constexpr std::size_t header_size = 8 + 4 + 8 + 8;
constexpr std::size_t payload_len_offset = 8 + 4;
constexpr std::size_t checksum_offset = payload_len_offset + 8;

std::uint64_t checksum(std::span<const std::byte> payload) {
    return fnv1a(std::string_view(
        reinterpret_cast<const char*>(payload.data()), payload.size()));
}

template <class T>
constexpr bool is_optional = false;
template <class T>
constexpr bool is_optional<std::optional<T>> = true;
template <class T>
constexpr bool is_vector = false;
template <class T>
constexpr bool is_vector<std::vector<T>> = true;
template <class T>
constexpr bool is_pair = false;
template <class A, class B>
constexpr bool is_pair<std::pair<A, B>> = true;
template <class T>
constexpr bool is_id = false;
template <class Tag>
constexpr bool is_id<strong_id<Tag>> = true;

// Every enum the payload carries: its last enumerator, for the reader's
// range check, and the name its errors use.
template <class E>
struct enum_info {
    E last;
    std::string_view name;
};
constexpr enum_info<backpressure_mode> info_of(backpressure_mode) {
    return {backpressure_mode::shed, "backpressure_mode"};
}
constexpr enum_info<fault_event_kind> info_of(fault_event_kind) {
    return {fault_event_kind::az_outage_end, "fault_event_kind"};
}
constexpr enum_info<engine_event::action> info_of(engine_event::action) {
    return {engine_event::action::drain_backpressure, "engine_event::action"};
}
constexpr enum_info<vm_state> info_of(vm_state) {
    return {vm_state::error, "vm_state"};
}
constexpr enum_info<lifecycle_event_kind> info_of(lifecycle_event_kind) {
    return {lifecycle_event_kind::shed, "lifecycle_event_kind"};
}
constexpr enum_info<schedule_fail_reason> info_of(schedule_fail_reason) {
    return {schedule_fail_reason::ha_attempts_exhausted,
            "schedule_fail_reason"};
}
constexpr enum_info<bp_request_kind> info_of(bp_request_kind) {
    return {bp_request_kind::ha_restart, "bp_request_kind"};
}

// --- the payload layout, once for both directions ---------------------------

/// S is T or const T: the writer runs an overload on const state, the
/// reader on the state it fills.
template <class S, class T>
concept either = std::same_as<std::remove_const_t<S>, T>;

/// engine_config and run_stats: the members their field lists put in
/// snapshots, in list order.
template <class Io, class S>
    requires either<S, engine_config> || either<S, run_stats>
void transfer(Io& io, S& s) {
    for_each_field(
        [&io](const field_info& f, auto& member) {
            if (f.in_snapshot) io(member);
        },
        s);
}

template <class Io, either<fault_event> S>
void transfer(Io& io, S& e) {
    io(e.t, e.kind, e.node, e.az, e.cpu_factor);
}

template <class Io, either<engine_event> S>
void transfer(Io& io, S& e) {
    io(e.act, e.id, e.fault);
}

template <class Io, either<event_heap<engine_event>::entry> S>
void transfer(Io& io, S& e) {
    io(e.at, e.seq, e.payload);
}

template <class Io, either<vm_state_row> S>
void transfer(Io& io, S& v) {
    io(v.flavor, v.state, v.created_at, v.deleted_at, v.placed_bb,
       v.placed_node, v.migration_count);
}

template <class Io, either<provider_usage> S>
void transfer(Io& io, S& u) {
    io(u.vcpus_used, u.ram_used_mib, u.disk_used_gib, u.instances);
}

template <class Io, either<node_state_row> S>
void transfer(Io& io, S& n) {
    io(n.accepting, n.residents, n.reserved_vcpus, n.reserved_ram_mib,
       n.reserved_disk_gib);
}

template <class Io, either<running_stats::exact_state> S>
void transfer(Io& io, S& s) {
    io(s.count, s.sum, s.m2, s.mean, s.min, s.max);
}

template <class Io, either<sample> S>
void transfer(Io& io, S& s) {
    io(s.t, s.value);
}

template <class Io, either<series_state> S>
void transfer(Io& io, S& row) {
    io(row.metric, row.labels, row.daily_first, row.daily, row.hourly_first,
       row.hourly, row.raw);
}

template <class Io, either<lifecycle_event> S>
void transfer(Io& io, S& e) {
    io(e.t, e.kind, e.vm, e.bb, e.from, e.to, e.reason);
}

template <class Io, either<ha_controller::pending_row> S>
void transfer(Io& io, S& p) {
    io(p.vm, p.crashed_at, p.attempts);
}

template <class Io, either<ha_group_state> S>
void transfer(Io& io, S& g) {
    io(g.due, g.victims);
}

template <class Io, either<bp_queued_request> S>
void transfer(Io& io, S& q) {
    io(q.vm, q.kind, q.priority, q.enqueued_at, q.deadline, q.deleted_at);
}

template <class Io, either<engine_state> S>
void transfer(Io& io, S& s) {
    io(s.config, s.region);
    io(s.queue, s.now, s.next_seq, s.executed);
    io(s.vms, s.provider_usages, s.allocations, s.placement_version);
    io(s.sched_transient_claim_failures);
    io(s.nodes);
    io(s.series, s.samples_appended, s.samples_dropped, s.raw_sealed_through);
    io(s.events, s.stats);
    io(s.arrival_cursor, s.arrival_drain_seq);
    io(s.has_ha, s.ha_pending, s.ha_downtime, s.ha_crashed, s.ha_restarted,
       s.ha_abandoned, s.ha_cancelled, s.ha_failed_attempts, s.ha_groups);
    io(s.node_down, s.node_az_down, s.node_cpu_factor, s.has_mig_abort_rng,
       s.mig_abort_rng_state, s.has_claim_fault_rng, s.claim_fault_rng_state);
    io(s.bb_contention_ewma);
    io(s.has_bp, s.bp_queue, s.bp_regime, s.bp_transitions, s.bp_drain_seq,
       s.bp_drain_armed);
}

// --- the two directions -----------------------------------------------------

class byte_writer {
public:
    template <class... T>
    void operator()(const T&... values) {
        (field(values), ...);
    }

    /// One value, encoded by its type: bools as u8 0/1, enums as their u8
    /// value, doubles as bit patterns, other integers little-endian at
    /// their own width, ids as i32 (-1 = invalid), strings and vectors as
    /// a u64 length then the elements, optionals as a presence bool then
    /// the value, pairs and structs member by member.
    template <class T>
    void field(const T& v) {
        if constexpr (is_optional<T>) {
            field(v.has_value());
            if (v.has_value()) field(*v);
        } else if constexpr (std::is_same_v<T, bool>) {
            field(static_cast<std::uint8_t>(v ? 1 : 0));
        } else if constexpr (std::is_enum_v<T>) {
            field(static_cast<std::uint8_t>(v));
        } else if constexpr (std::is_same_v<T, double>) {
            field(std::bit_cast<std::uint64_t>(v));
        } else if constexpr (std::is_integral_v<T>) {
            append(&v, sizeof v);
        } else if constexpr (is_id<T>) {
            field(v.valid() ? v.value() : std::int32_t{-1});
        } else if constexpr (std::is_same_v<T, std::string>) {
            field(static_cast<std::uint64_t>(v.size()));
            append(v.data(), v.size());
        } else if constexpr (is_vector<T>) {
            field(static_cast<std::uint64_t>(v.size()));
            for (const auto& element : v) field(element);
        } else if constexpr (is_pair<T>) {
            field(v.first);
            field(v.second);
        } else {
            transfer(*this, v);
        }
    }

    std::vector<std::byte> take() { return std::move(buf_); }

private:
    void append(const void* data, std::size_t n) {
        const auto* p = static_cast<const std::byte*>(data);
        buf_.insert(buf_.end(), p, p + n);
    }
    std::vector<std::byte> buf_;
};

/// Bytes a default T takes on the wire: the least any T can take, since
/// only containers and optionals grow.  Bounds container lengths read
/// from untrusted input before anything is allocated.
template <class T>
std::size_t min_wire_size() {
    static const std::size_t size = [] {
        byte_writer w;
        w.field(T{});
        return w.take().size();
    }();
    return size;
}

class byte_reader {
public:
    explicit byte_reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

    std::size_t remaining() const { return bytes_.size() - pos_; }

    template <class... T>
    void operator()(T&... values) {
        (field(values), ...);
    }

    /// Inverse of byte_writer::field.
    template <class T>
    void field(T& v) {
        if constexpr (is_optional<T>) {
            bool present = false;
            field(present);
            v.reset();
            if (present) field(v.emplace());
        } else if constexpr (std::is_same_v<T, bool>) {
            const auto raw = scalar<std::uint8_t>();
            if (raw > 1) throw snapshot_error("snapshot: malformed bool value");
            v = raw != 0;
        } else if constexpr (std::is_enum_v<T>) {
            const enum_info<T> info = info_of(T{});
            const auto raw = scalar<std::uint8_t>();
            if (raw > static_cast<std::uint8_t>(info.last)) {
                throw snapshot_error("snapshot: out-of-range " +
                                     std::string(info.name) + " value " +
                                     std::to_string(raw));
            }
            v = static_cast<T>(raw);
        } else if constexpr (std::is_same_v<T, double>) {
            v = std::bit_cast<double>(scalar<std::uint64_t>());
        } else if constexpr (std::is_integral_v<T>) {
            v = scalar<T>();
        } else if constexpr (is_id<T>) {
            v = T(scalar<std::int32_t>());
        } else if constexpr (std::is_same_v<T, std::string>) {
            const auto n = scalar<std::uint64_t>();
            need(n);
            v.assign(reinterpret_cast<const char*>(bytes_.data() + pos_),
                     static_cast<std::size_t>(n));
            pos_ += static_cast<std::size_t>(n);
        } else if constexpr (is_vector<T>) {
            v.resize(count(min_wire_size<typename T::value_type>()));
            for (auto& element : v) field(element);
        } else if constexpr (is_pair<T>) {
            field(v.first);
            field(v.second);
        } else {
            transfer(*this, v);
        }
    }

private:
    template <class T>
    T scalar() {
        need(sizeof(T));
        T v;
        std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }
    void need(std::uint64_t n) const {
        if (n > remaining()) {
            throw snapshot_error("snapshot: truncated input (" +
                                 std::to_string(n) + " bytes needed, " +
                                 std::to_string(remaining()) + " left)");
        }
    }
    /// Element count of a container about to be read, rejected when even
    /// elements of `min_bytes` each could not fit in what is left.
    std::size_t count(std::size_t min_bytes) {
        const auto n = scalar<std::uint64_t>();
        if (n > remaining() / min_bytes) {
            throw snapshot_error(
                "snapshot: truncated input (container length exceeds "
                "remaining bytes)");
        }
        return static_cast<std::size_t>(n);
    }

    std::span<const std::byte> bytes_;
    std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::byte> serialize(const engine_state& state) {
    // one buffer: the header with placeholder length and checksum, then
    // the payload; the two header fields are patched once it is written
    byte_writer w;
    w(snapshot_magic, format_version, std::uint64_t{0}, std::uint64_t{0});
    w(state);
    std::vector<std::byte> out = w.take();
    const std::uint64_t payload_len = out.size() - header_size;
    const std::uint64_t sum =
        checksum(std::span<const std::byte>(out).subspan(header_size));
    std::memcpy(out.data() + payload_len_offset, &payload_len,
                sizeof payload_len);
    std::memcpy(out.data() + checksum_offset, &sum, sizeof sum);
    return out;
}

engine_state deserialize(std::span<const std::byte> bytes) {
    if (bytes.size() < header_size) {
        throw snapshot_error("snapshot: input shorter than the file header (" +
                             std::to_string(bytes.size()) + " of " +
                             std::to_string(header_size) + " bytes)");
    }
    byte_reader header(bytes);
    std::uint64_t magic = 0;
    header(magic);
    if (magic != snapshot_magic) {
        throw snapshot_error(
            "snapshot: bad magic — not a snapshot file (or corrupted "
            "header)");
    }
    std::uint32_t version = 0;
    header(version);
    if (version != format_version) {
        throw snapshot_error(
            "snapshot: unsupported format version " + std::to_string(version) +
            " (this build reads version " + std::to_string(format_version) +
            " only)");
    }
    std::uint64_t payload_len = 0;
    std::uint64_t expected_sum = 0;
    header(payload_len, expected_sum);
    if (payload_len != header.remaining()) {
        throw snapshot_error(
            "snapshot: truncated input (header promises " +
            std::to_string(payload_len) + " payload bytes, " +
            std::to_string(header.remaining()) + " present)");
    }
    const std::span<const std::byte> payload =
        bytes.subspan(bytes.size() - static_cast<std::size_t>(payload_len));
    if (checksum(payload) != expected_sum) {
        throw snapshot_error(
            "snapshot: payload checksum mismatch (corrupted input)");
    }

    byte_reader r(payload);
    engine_state state;
    r(state);
    if (r.remaining() != 0) {
        throw snapshot_error(
            "snapshot: trailing bytes after the payload (corrupted input)");
    }
    return state;
}

void save_file(const engine_state& state, const std::string& path) {
    const std::vector<std::byte> bytes = serialize(state);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        throw snapshot_error("snapshot: cannot open '" + path +
                             "' for writing");
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) {
        throw snapshot_error("snapshot: short write to '" + path + "'");
    }
}

engine_state load_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
        throw snapshot_error("snapshot: cannot open '" + path +
                             "' for reading");
    }
    const std::streamoff size = in.tellg();
    if (size < 0) {
        throw snapshot_error("snapshot: cannot size '" + path + "'");
    }
    std::vector<std::byte> bytes(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!in) {
        throw snapshot_error("snapshot: short read from '" + path + "'");
    }
    return deserialize(bytes);
}

}  // namespace sci::snapshot
