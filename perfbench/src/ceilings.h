// Hardware ceilings measured on the host the benchmark runs on. They bound
// single layers and are reported only as per-layer rows, never divided into
// an end-to-end metric.
#pragma once

#include <cstddef>

namespace perfbench {

/// memcpy throughput between two `bytes`-sized buffers, GB/s (median).
[[nodiscard]] double memcpy_gbps(std::size_t bytes);

/// One raw TCP stream over loopback (1 MiB writes, one reader thread),
/// GB/s (median of three 256 MiB transfers). NaN if a socket call fails.
[[nodiscard]] double loopback_gbps();

}  // namespace perfbench
