#include "core/sigma_emitter.h"

namespace mcc::core {

sigma_ctrl_emitter::sigma_ctrl_emitter(sim::network& net,
                                       sim::node_id sender_host,
                                       std::vector<sim::group_addr> groups,
                                       sim::time_ns slot_duration, int key_bits,
                                       const sigma_emitter_config& cfg)
    : net_(net),
      host_(sender_host),
      groups_(std::move(groups)),
      slot_duration_(slot_duration),
      key_bits_(key_bits),
      cfg_(cfg),
      code_(cfg.data_shards, cfg.parity_shards),
      series_(net.sched(), [this](std::size_t k) {
        net_.get(host_)->send(std::move(packets_[k]));
      }) {
  util::require(!groups_.empty(), "sigma_ctrl_emitter: no groups");
}

void sigma_ctrl_emitter::attach(delta_layered_sender& delta) {
  delta.set_keys_callback(
      [this](const delta_slot_keys& keys, std::int64_t current_slot) {
        emit(keys, current_slot);
      });
}

void sigma_ctrl_emitter::emit(const delta_slot_keys& keys,
                              std::int64_t current_slot) {
  emit_block(block_from_keys(keys, groups_, slot_duration_, key_bits_),
             current_slot);
}

void sigma_ctrl_emitter::emit_block(const sigma_key_block& block,
                                    std::int64_t current_slot) {
  ++stats_.slots;
  const std::vector<std::uint8_t> payload = serialize(block);
  stats_.payload_bytes += static_cast<std::int64_t>(payload.size());

  const auto data = crypto::split_into_shards(payload, cfg_.data_shards);
  const auto codeword = code_.encode(data);
  const int total = static_cast<int>(codeword.size());

  // Spread the special packets evenly across the slot so a short burst of
  // congestion cannot erase the whole block. They go out through series_
  // (one lane: the times increase), which needs the previous block sent.
  const sim::time_ns slot_start = current_slot * slot_duration_;
  packets_.clear();
  for (int i = 0; i < total; ++i) {
    sim::sigma_ctrl hdr;
    hdr.session_id = block.session_id;
    hdr.emitted_slot = current_slot;
    hdr.target_slot = block.target_slot;
    hdr.slot_duration = slot_duration_;
    hdr.shard_index = i;
    hdr.data_shards = cfg_.data_shards;
    hdr.total_shards = total;
    hdr.payload_size = payload.size();
    hdr.shard_bytes = codeword[static_cast<std::size_t>(i)];

    sim::packet p;
    p.size_bytes = cfg_.ctrl_header_bytes +
                   static_cast<int>(hdr.shard_bytes.size());
    p.dst = sim::dest::to_group(groups_.front());
    p.router_alert = true;
    p.tag = sim::sigma_tag{block.session_id, current_slot};
    p.hdr = std::move(hdr);

    stats_.ctrl_bytes += p.size_bytes;
    stats_.header_bytes += cfg_.ctrl_header_bytes;
    ++stats_.ctrl_packets;

    series_.add(slot_start + (2 * static_cast<sim::time_ns>(i) + 1) *
                                 slot_duration_ / (2 * total));
    packets_.push_back(std::move(p));
  }
  series_.schedule();
}

}  // namespace mcc::core
