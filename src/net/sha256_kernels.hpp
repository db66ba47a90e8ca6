// SHA-256 block compression kernels behind net::Sha256 (library-internal;
// tests include it to compare the kernels directly).
//
// Each kernel folds `nblocks` consecutive 64-byte blocks into the eight
// working-state words, exactly as FIPS 180-4 §6.2.2. The scalar kernel
// is portable and is the reference; the SHA-NI kernel uses the x86 SHA
// extensions and exists only where the CPU reports them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace crowdml::net::detail {

using Sha256BlocksFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                                std::size_t nblocks);

void sha256_blocks_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                          std::size_t nblocks);

/// The SHA-NI kernel, or null when this build is not x86 or this CPU
/// lacks the SHA or SSE4.1 extensions.
Sha256BlocksFn sha256_blocks_shani();

/// The kernel Sha256 uses: SHA-NI when available, else scalar. Chosen
/// from CPUID on first call and fixed for the life of the process.
Sha256BlocksFn sha256_blocks();

}  // namespace crowdml::net::detail
