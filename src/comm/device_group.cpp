#include "comm/device_group.h"

namespace vocab {

DeviceGroup::DeviceGroup(int world_size, std::chrono::milliseconds timeout,
                         transport::Transport* transport) {
  transport::Transport& backend =
      transport != nullptr ? *transport : transport::default_transport();
  impl_ = backend.make_collective(world_size, timeout);
}

void DeviceGroup::set_abort_token(std::shared_ptr<AbortToken> token) {
  impl_->set_abort_token(std::move(token));
}

void DeviceGroup::barrier(int rank, const std::string& tag) { impl_->barrier(rank, tag); }

void DeviceGroup::all_reduce(int rank, Tensor& data, ReduceOp op, const std::string& tag) {
  impl_->all_reduce(rank, data, op, tag);
}

void DeviceGroup::reduce(int rank, int root, Tensor& data, ReduceOp op,
                         const std::string& tag) {
  impl_->reduce(rank, root, data, op, tag);
}

void DeviceGroup::broadcast(int rank, int root, Tensor& data, const std::string& tag) {
  impl_->broadcast(rank, root, data, tag);
}

Tensor DeviceGroup::all_gather_rows(int rank, const Tensor& data, const std::string& tag) {
  return impl_->all_gather_rows(rank, data, tag);
}

void DeviceGroup::post_all_reduce(int rank, Tensor& data, ReduceOp op, const std::string& tag) {
  impl_->post(rank, tag, {transport::CollectiveRequest::Kind::kAllReduce, op, 0, &data, nullptr});
}

void DeviceGroup::post_broadcast(int rank, int root, Tensor& data, const std::string& tag) {
  impl_->post(rank, tag,
              {transport::CollectiveRequest::Kind::kBroadcast, ReduceOp::Sum, root, &data,
               nullptr});
}

void DeviceGroup::post_all_gather_rows(int rank, const Tensor& data, Tensor& out,
                                       const std::string& tag) {
  impl_->post(rank, tag,
              {transport::CollectiveRequest::Kind::kAllGatherRows, ReduceOp::Sum, 0, &out,
               &data});
}

void DeviceGroup::wait(int rank, const std::string& tag) { impl_->wait(rank, tag); }

std::uint64_t DeviceGroup::completed_collectives() const {
  return impl_->completed_collectives();
}

std::vector<int> DeviceGroup::waiting_ranks() const { return impl_->waiting_ranks(); }

std::string DeviceGroup::describe() const { return impl_->describe(); }

}  // namespace vocab
