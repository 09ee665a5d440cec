#pragma once

// The suite-wide decode determinism pin.
//
// The standard fixed-seed workload (96x80, 5 frames, qscale 14, GOP {9,3},
// seed 3, detail 8, no noise, motion speed 4) decoded on a default
// EclipseInstance must land on exactly these simulated numbers. They were
// captured from the seed build and may only change when the *timing model*
// changes — never from kernel data structures, SIMD backends, farm
// scheduling, or control-plane refactors. Every pin assertion in the test
// suite and the bench gates references these constants, so a deliberate
// timing-model change is a one-line update reviewed in one place.

#include <cstdint>

namespace eclipse::pin {

inline constexpr std::uint64_t kDecodePinCycles = 144885;
inline constexpr std::uint64_t kDecodePinEvents = 48109;
inline constexpr std::uint64_t kDecodePinMacroblocks = 150;

// Memory-path counters of the same decode: stream-cache totals over every
// shell's stream rows, and each bus's transactions and busy cycles. They
// move with the cycles above, so they pin the stream-cache and bus timing
// model one layer down.
inline constexpr std::uint64_t kDecodePinCacheHits = 2783;
inline constexpr std::uint64_t kDecodePinCacheMisses = 10477;
inline constexpr std::uint64_t kDecodePinCacheFlushes = 5727;
inline constexpr std::uint64_t kDecodePinPrefetches = 1570;
inline constexpr std::uint64_t kDecodePinSramReadTransactions = 7766;
inline constexpr std::uint64_t kDecodePinSramReadBusy = 38830;
inline constexpr std::uint64_t kDecodePinSramWriteTransactions = 5727;
inline constexpr std::uint64_t kDecodePinSramWriteBusy = 28635;
inline constexpr std::uint64_t kDecodePinSystemBusTransactions = 877;
inline constexpr std::uint64_t kDecodePinSystemBusBusy = 16775;

}  // namespace eclipse::pin
