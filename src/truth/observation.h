// Observation storage shared by every truth-analysis method: for each task,
// the list of (user, value) data points collected from the crowd.
#ifndef ETA2_TRUTH_OBSERVATION_H
#define ETA2_TRUTH_OBSERVATION_H

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"

namespace eta2::truth {

using UserId = std::size_t;
using TaskId = std::size_t;

struct Observation {
  UserId user = 0;
  double value = 0.0;
};

// Dense per-task observation lists for a fixed (user count, task count)
// universe. ω_ij of the paper is `true` iff user i appears in task j's list.
class ObservationSet {
 public:
  ObservationSet(std::size_t user_count, std::size_t task_count);

  [[nodiscard]] std::size_t user_count() const { return user_count_; }
  [[nodiscard]] std::size_t task_count() const { return per_task_.size(); }

  // Records that `user` reported `value` for `task`. A user may report at
  // most once per task (enforced).
  void add(TaskId task, UserId user, double value);
  // add() without the checks, for copies out of a set that is already
  // duplicate-free: the caller guarantees that the pair is in range and new.
  void append(TaskId task, UserId user, double value) {
    ETA2_ASSERT(!has_observation(task, user));
    per_task_[task].push_back(Observation{user, value});
    ++tasks_answered_[user];
    ++total_;
  }

  [[nodiscard]] std::span<const Observation> for_task(TaskId task) const;
  [[nodiscard]] bool has_observation(TaskId task, UserId user) const;
  [[nodiscard]] std::size_t total_observations() const { return total_; }

  // Number of distinct tasks the user reported on.
  [[nodiscard]] std::size_t tasks_answered(UserId user) const;

  // Plain mean and standard deviation of a task's values (0 stddev for < 2
  // observations). Used by baselines and for data normalization.
  [[nodiscard]] double task_mean(TaskId task) const;
  [[nodiscard]] double task_stddev(TaskId task) const;

 private:
  std::size_t user_count_;
  std::vector<std::vector<Observation>> per_task_;
  std::vector<std::size_t> tasks_answered_;
  std::size_t total_ = 0;
};

}  // namespace eta2::truth

#endif  // ETA2_TRUTH_OBSERVATION_H
