#pragma once
/// \file host.hpp
/// What the host delivers to a bench, measured rather than read from the
/// core count: a container can report four CPUs and still time-slice four
/// busy threads on about one core.

namespace prtr::bench {

/// Measured host concurrency: `threads` threads each spin the same fixed
/// amount of work, against one thread doing it alone, best of two trials
/// per width. Returns threads * t(1) / t(threads): about `threads` on a
/// host that runs them all at once, about 1 on one that time-slices them.
[[nodiscard]] double hostConcurrency(unsigned threads);

}  // namespace prtr::bench
