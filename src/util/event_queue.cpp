#include "util/event_queue.hpp"

#include <stdexcept>

namespace autolearn::util {

void EventQueue::schedule_at(SimTime t, Callback cb) {
  // Negated so a NaN time, which compares false both ways, is refused too.
  if (!(t >= now_)) {
    throw std::invalid_argument("EventQueue: cannot schedule in the past");
  }
  events_.push(Event{t, next_seq_++, std::move(cb)});
}

void EventQueue::schedule_in(SimTime delay, Callback cb) {
  schedule_at(now_ + delay, std::move(cb));
}

bool EventQueue::step() {
  if (events_.empty()) return false;
  // Move the callback out rather than copy it: the heap orders by time and
  // seq alone, which the move leaves in place for pop() to sift by.
  Event ev = std::move(const_cast<Event&>(events_.top()));
  events_.pop();
  now_ = ev.time;
  ev.cb();
  return true;
}

std::size_t EventQueue::run(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

std::size_t EventQueue::run_until(SimTime t) {
  std::size_t n = 0;
  while (!events_.empty() && events_.top().time <= t) {
    step();
    ++n;
  }
  if (t > now_) now_ = t;
  return n;
}

SimTime EventQueue::next_time() const {
  if (events_.empty()) throw std::logic_error("EventQueue: empty");
  return events_.top().time;
}

}  // namespace autolearn::util
