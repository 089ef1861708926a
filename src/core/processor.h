#ifndef FBSTREAM_CORE_PROCESSOR_H_
#define FBSTREAM_CORE_PROCESSOR_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/event.h"

namespace fbstream::stylus {

// Stylus provides three types of processors (§4.5.2): "a stateless
// processor, a general stateful processor, and a monoid stream processor."
// Application writers subclass exactly one of these.

// Stateless: pure event -> output rows. Used for filter/project/reshard
// nodes like the Filterer and Joiner of Figure 3.
class StatelessProcessor {
 public:
  virtual ~StatelessProcessor() = default;

  // Emits zero or more output rows for the event by appending them to
  // `out`, which holds the batch's earlier output: never clear it. Must be
  // side-effect-free with respect to engine-visible state (rerunnable;
  // §4.3.1 activity 1).
  virtual void Process(const Event& event, std::vector<Row>* out) = 0;
};

// General stateful: maintains opaque in-memory state that the engine
// checkpoints as a unit. The Scorer of Figure 3 and the Counter Node of
// Figure 6 are stateful processors.
class StatefulProcessor {
 public:
  virtual ~StatefulProcessor() = default;

  // Processes one event; may update in-memory state and append output rows
  // to `out` (which holds the batch's earlier output: never clear it).
  virtual void Process(const Event& event, std::vector<Row>* out) = 0;

  // Called at each checkpoint boundary before state is saved; the processor
  // may emit window results (e.g. the Counter Node "emits the counter value
  // every few seconds").
  virtual void OnCheckpoint(Micros now, std::vector<Row>* out) {
    (void)now;
    (void)out;
  }

  // Engine-driven state persistence.
  virtual std::string SerializeState() const = 0;
  virtual Status RestoreState(std::string_view data) = 0;
};

// A monoid (§4.4.2): an identity element plus an associative combine over
// serialized partial states. HyperLogLog sketches, counters, sums, max/min,
// and top-K sketches are all monoids. Shared with Puma aggregations and the
// MapReduce combiner.
class MonoidAggregator {
 public:
  virtual ~MonoidAggregator() = default;

  virtual const char* Name() const = 0;
  virtual std::string Identity() const = 0;
  // Must be associative: Combine(a, Combine(b, c)) == Combine(Combine(a, b), c).
  virtual std::string Combine(const std::string& older,
                              const std::string& newer) const = 0;
};

// Monoid stream processor: "the application appends partial state to the
// framework and Stylus decides when to merge the partial states into a
// complete state" (§4.4.2). Process() turns one event into (key, partial)
// contributions; the engine owns the keyed state and its flushing.
class MonoidProcessor {
 public:
  virtual ~MonoidProcessor() = default;

  using Contribution = std::pair<std::string, std::string>;

  // Emits (state key, partial value) contributions for the event.
  virtual void Process(const Event& event,
                       std::vector<Contribution>* contributions) = 0;

  virtual const MonoidAggregator& aggregator() const = 0;
};

// Ready-made aggregators.
std::unique_ptr<MonoidAggregator> MakeInt64SumAggregator();
std::unique_ptr<MonoidAggregator> MakeInt64MaxAggregator();
std::unique_ptr<MonoidAggregator> MakeHllAggregator(int precision = 12);

}  // namespace fbstream::stylus

#endif  // FBSTREAM_CORE_PROCESSOR_H_
