"""Baseline PoW functions (§II related work, §VI-C alternatives).

Every baseline implements the :class:`~repro.core.pow.PowFunction`
interface so the miner, the blockchain, and the ASIC-advantage experiments
can swap them for HashCore:

* :class:`~repro.baselines.sha256d.Sha256d` — Bitcoin's double SHA-256,
  the ASIC-friendly extreme.
* :class:`~repro.baselines.scrypt_like.ScryptLike` — sequential
  memory-hard ROMix (scrypt [9]).
* :class:`~repro.baselines.equihash_like.EquihashLike` — memory-hard
  generalized-birthday PoW (Equihash [1]).
* :class:`~repro.baselines.randomx_like.RandomXLike` — random-program VM
  PoW (§VI-C): uniform random code on the same synthetic ISA, *without*
  inverted benchmarking's profile matching — the head-to-head contrast for
  HashCore's generation strategy.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Sha256d": ".sha256d",
    "ScryptLike": ".scrypt_like",
    "EquihashLike": ".equihash_like",
    "RandomXLike": ".randomx_like",
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
