// Wire formats: addresses, protocol headers, and the packet value type.
//
// A simulated packet carries exactly one protocol header (a closed variant,
// mirroring a wire protocol number). Routers forward on addresses and, for
// SIGMA enforcement, on the protocol-independent shim tag only — they never
// parse congestion-control headers (paper Requirement 3).
#ifndef MCC_SIM_WIRE_H
#define MCC_SIM_WIRE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "crypto/key.h"
#include "sim/time.h"

namespace mcc::sim {

/// Immutable shared payload body for variable-length header fields.
///
/// Heavyweight payloads (share lists, FEC shard bytes, subscription pairs)
/// are written once at the sender and only read downstream — routers never
/// mutate them (paper Requirement 3 guarantees enforcement needs no header
/// rewriting). Backing them with a shared immutable vector makes the packet
/// struct copy in O(1): multicast fan-out and link queues bump a refcount
/// instead of deep-copying the body per branch.
template <typename T>
class shared_body {
 public:
  shared_body() = default;
  shared_body(std::vector<T> v)  // NOLINT(google-explicit-constructor)
      : data_(v.empty() ? nullptr
                        : std::make_shared<const std::vector<T>>(std::move(v))) {}
  shared_body(std::initializer_list<T> il) : shared_body(std::vector<T>(il)) {}

  /// The backing vector (a shared static empty vector when unset).
  [[nodiscard]] const std::vector<T>& get() const {
    static const std::vector<T> empty_body;
    return data_ == nullptr ? empty_body : *data_;
  }
  operator const std::vector<T>&() const {  // NOLINT(google-explicit-constructor)
    return get();
  }

  [[nodiscard]] bool empty() const { return data_ == nullptr || data_->empty(); }
  [[nodiscard]] std::size_t size() const {
    return data_ == nullptr ? 0 : data_->size();
  }
  [[nodiscard]] auto begin() const { return get().begin(); }
  [[nodiscard]] auto end() const { return get().end(); }
  const T& operator[](std::size_t i) const { return get()[i]; }
  const T& front() const { return get().front(); }

  /// Number of packet copies sharing this body (0 when unset). Exposed so
  /// fan-out tests can assert that branch copies bump a refcount instead of
  /// deep-copying.
  [[nodiscard]] long use_count() const {
    return data_ == nullptr ? 0 : data_.use_count();
  }

 private:
  std::shared_ptr<const std::vector<T>> data_;
};

/// Identifies a node (host or router).
using node_id = int;
inline constexpr node_id invalid_node = -1;

/// A multicast group address.
struct group_addr {
  int value = 0;
  friend constexpr auto operator<=>(group_addr, group_addr) = default;
};

/// Packet destination: a unicast node or a multicast group.
struct dest {
  enum class kind { unicast, multicast };
  kind k = kind::unicast;
  int id = invalid_node;  // node_id or group_addr::value

  static dest to_node(node_id n) { return dest{kind::unicast, n}; }
  static dest to_group(group_addr g) { return dest{kind::multicast, g.value}; }
  [[nodiscard]] bool is_multicast() const { return k == kind::multicast; }
  [[nodiscard]] group_addr group() const { return group_addr{id}; }
  friend constexpr bool operator==(dest, dest) = default;
};

// ---------------------------------------------------------------------------
// Protocol headers
// ---------------------------------------------------------------------------

/// TCP segment (data or pure ACK). Sequence numbers count segments, not
/// bytes, in the ns-2 style.
struct tcp_segment {
  int flow_id = 0;
  std::int64_t seq = 0;  // segment number of this data packet
  std::int64_t ack = 0;  // next expected segment (cumulative)
  bool is_ack = false;
};

/// Constant-bit-rate payload.
struct cbr_payload {
  int flow_id = 0;
  std::int64_t seq = 0;
};

/// One Shamir share for one subscription level, carried by packets of
/// threshold-based protocols (paper section 3.1.2, "Congested state").
struct level_share {
  std::int32_t level = 0;
  std::uint64_t x = 0;
  std::uint64_t y = 0;
};

/// FLID data packet header, shared by the plain and DELTA-enabled protocol
/// and by the replicated-multicast variant. The component / decrease fields
/// are the DELTA in-band key material (zero for plain FLID-DL).
struct flid_data {
  int session_id = 0;
  int group_index = 0;  // 1-based layer index (1 = minimal group)
  std::int64_t slot = 0;
  int seq_in_slot = 0;
  int packets_in_slot = 0;
  bool last_in_slot = false;
  /// Bit g set = the protocol authorizes an upgrade to group g this slot
  /// (bit 1 is group 1; bit 0 unused).
  std::uint32_t upgrade_auth_mask = 0;
  /// c_{g,p}. Carried unchanged end to end: a receiver leaves an
  /// ECN-marked packet's component out of the key (section 3.1.2).
  crypto::group_key component;
  crypto::group_key decrease;  // d_g = delta_{g-1}; meaningful for g >= 2
  /// Threshold-DELTA share payload: one share of each level the packet's
  /// group belongs to (empty for XOR-based DELTA; the per-packet size cost
  /// is the overhead the paper calls out for threshold schemes).
  shared_body<level_share> level_shares;
};

/// IGMP-style membership report from a host to its edge router.
struct igmp_msg {
  enum class op { join, leave };
  op operation = op::join;
  group_addr group;
};

// --- SIGMA messages (paper Figure 6 and section 3.2) -----------------------

/// One FEC shard of the address-key tuple block for a future slot.
/// Carried in special packets that edge routers intercept (router-alert).
struct sigma_ctrl {
  int session_id = 0;
  std::int64_t emitted_slot = 0;  // slot during which this was sent (s)
  std::int64_t target_slot = 0;   // slot whose keys it carries (s + 2)
  time_ns slot_duration = 0;
  int shard_index = 0;
  int data_shards = 0;   // k
  int total_shards = 0;  // k + m
  std::size_t payload_size = 0;  // pre-FEC byte count
  shared_body<std::uint8_t> shard_bytes;
};

/// Subscription message: address-key pairs for one future slot (Fig. 6b).
struct sigma_subscribe {
  int session_id = 0;
  std::int64_t slot = 0;
  shared_body<std::pair<group_addr, crypto::group_key>> pairs;
  std::uint64_t msg_id = 0;
};

/// Explicit unsubscription (Fig. 6c).
struct sigma_unsubscribe {
  int session_id = 0;
  shared_body<group_addr> groups;
};

/// Session-join: keyless admission to the minimal group (Fig. 6a).
struct sigma_session_join {
  int session_id = 0;
  group_addr minimal_group;
};

/// Edge-router acknowledgment of a subscription message.
struct sigma_ack {
  std::uint64_t msg_id = 0;
};

using header =
    std::variant<std::monostate, tcp_segment, cbr_payload, flid_data, igmp_msg,
                 sigma_ctrl, sigma_subscribe, sigma_unsubscribe,
                 sigma_session_join, sigma_ack>;

/// Protocol-independent shim SIGMA-enabled senders put on multicast data
/// packets; the only per-packet state edge routers consult for enforcement.
struct sigma_tag {
  int session_id = 0;
  std::int64_t slot = 0;
};

/// Out-of-band session directory entry (the role an SDP/session-directory
/// announcement plays for RLM/FLID sessions): how receivers learn group
/// addresses and how SIGMA edge routers learn which groups a protected
/// session owns and which group is minimal (first entry).
struct session_announcement {
  int session_id = 0;
  shared_body<group_addr> groups;  // ordered; minimal group first
  time_ns slot_duration = 0;
  bool sigma_protected = false;
};

// ---------------------------------------------------------------------------
// Packet
// ---------------------------------------------------------------------------

struct packet {
  std::uint64_t uid = 0;
  int size_bytes = 0;
  node_id src = invalid_node;
  dest dst;
  bool router_alert = false;  // intercept at edge routers, never reach hosts
  bool ecn_capable = false;
  bool ecn_marked = false;
  std::optional<sigma_tag> tag;
  header hdr;
};

/// The packet's header as a T, or null if it carries another kind.
template <typename T>
[[nodiscard]] const T* header_as(const packet& p) {
  return std::get_if<T>(&p.hdr);
}

}  // namespace mcc::sim

#endif  // MCC_SIM_WIRE_H
