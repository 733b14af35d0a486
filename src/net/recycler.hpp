// The free-list recycler behind net::FramePool and net::SlicePool.
//
// A pool hands out objects it allocated itself; when the last owner lets go
// of one, give_back() pushes it onto the pool's free list instead of
// freeing it, so steady-state traffic reuses a warm working set (payload
// vectors keep their capacity across lives).
//
// Lifetime: pooled objects routinely outlive their pool.  A bench declares
// `Engine eng; Cluster cl(eng, ...)`, so the cluster (and every NIC-owned
// pool) destructs before the engine, while queued events may still hold
// frames holding slices.  The pool core is therefore shared_ptr-owned: the
// pool destructor marks it dead and frees the free list, and stragglers see
// the dead mark and free themselves.  Counts are plain integers: pooled
// objects never cross threads (a frame may cross shards, but every shard of
// a sim::ShardGroup runs on the calling thread).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"

namespace ulsocks::net {

template <class T>
class Recycler;

namespace detail {
template <class T>
struct RecyclerCore {
  std::vector<T*> free;
  bool alive = true;           // cleared when the owning pool dies
  std::uint64_t created = 0;   // objects ever heap-allocated by the pool
  std::uint64_t recycled = 0;  // takes served from the free list
  std::uint64_t outstanding = 0;
  std::uint64_t high_water = 0;  // peak simultaneously-outstanding objects
  obs::Gauge* hwm_gauge = nullptr;  // mirrors high_water when bound
};
}  // namespace detail

/// Base of every recycled type: the handle on the pool that allocated the
/// object.  Set once at allocation and never reassigned on reuse, so a
/// recycle involves no refcount traffic.  Null for an object built outside
/// any pool, which give_back() simply frees.
template <class T>
class Recyclable {
  friend class Recycler<T>;
  std::shared_ptr<detail::RecyclerCore<T>> home_;
};

/// Free list plus created/recycled/outstanding/high-water counts for one
/// pool of T.  Pools derive from it and add the typed acquire calls.
/// Single-threaded, like the Engine that drives it.
template <class T>
class Recycler {
 public:
  Recycler(const Recycler&) = delete;
  Recycler& operator=(const Recycler&) = delete;

  /// Return `obj` to the pool that allocated it.  An object whose pool is
  /// gone, or that never had one, is freed instead.
  static void give_back(T* obj) noexcept {
    detail::RecyclerCore<T>* core =
        static_cast<Recyclable<T>*>(obj)->home_.get();
    if (core != nullptr) {
      --core->outstanding;
      if (core->alive) {
        core->free.push_back(obj);
        return;
      }
    }
    delete obj;
  }

  /// Publish the pool's high-water mark through `gauge` (updated whenever
  /// a new peak is reached).
  void bind_hwm_gauge(obs::Gauge& gauge) {
    core_->hwm_gauge = &gauge;
    gauge.set(static_cast<std::int64_t>(core_->high_water));
  }

  [[nodiscard]] std::uint64_t created() const { return core_->created; }
  [[nodiscard]] std::uint64_t recycled() const { return core_->recycled; }
  [[nodiscard]] std::uint64_t outstanding() const {
    return core_->outstanding;
  }
  [[nodiscard]] std::uint64_t high_water_mark() const {
    return core_->high_water;
  }

 protected:
  Recycler() : core_(std::make_shared<detail::RecyclerCore<T>>()) {}
  ~Recycler() {
    core_->alive = false;
    for (T* obj : core_->free) delete obj;
    core_->free.clear();
  }

  /// An object off the free list, or a fresh one bound to this pool.  A
  /// recycled object keeps whatever its previous life left in it: the
  /// caller resets what it hands out.
  [[nodiscard]] T* take() {
    detail::RecyclerCore<T>& c = *core_;
    T* obj = nullptr;
    if (!c.free.empty()) {
      obj = c.free.back();
      c.free.pop_back();
      ++c.recycled;
    } else {
      obj = new T();
      static_cast<Recyclable<T>*>(obj)->home_ = core_;
      ++c.created;
    }
    ++c.outstanding;
    if (c.outstanding > c.high_water) {
      c.high_water = c.outstanding;
      if (c.hwm_gauge != nullptr) {
        c.hwm_gauge->set(static_cast<std::int64_t>(c.high_water));
      }
    }
    return obj;
  }

 private:
  std::shared_ptr<detail::RecyclerCore<T>> core_;
};

}  // namespace ulsocks::net
