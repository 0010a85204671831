"""RENO configuration: which optimizations run and how they divide labor."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.confighash import dataclass_digest

#: Integration-table policies for the division of labor studied in §4.4.
IT_POLICY_LOADS_ONLY = "loads_only"   # default RENO: the IT eliminates only loads
IT_POLICY_FULL = "full"               # full register integration: loads + ALU ops


@dataclass(frozen=True)
class RenoConfig:
    """Configuration of the RENO renamer.

    The default configuration is the paper's advocated one: RENO_ME and
    RENO_CF handle moves and register-immediate additions, and the
    integration table (RENO_CSE+RA) focuses on loads.

    Attributes:
        name: Label used in reports (e.g. ``"RENO"``, ``"CF+ME"``).
        enable_move_elimination: RENO_ME.
        enable_constant_folding: RENO_CF (subsumes move elimination when on).
        enable_integration: RENO_CSE+RA (register integration).
        integration_policy: Which instruction kinds the IT may eliminate
            (``"loads_only"`` or ``"full"``).
        it_entries / it_associativity: Integration-table geometry (the paper
            uses a 512-entry, 2-way table).
        displacement_bits: Width of the map-table displacement field (the
            Alpha ISA has 16-bit immediates, so 16 bits by default).
        allow_dependent_eliminations: Ablation switch — when True, RENO may
            eliminate two dependent instructions renamed in the same cycle
            (the paper disallows this to bound renaming complexity).
        fused_nonadd_penalty: Extra cycles when a fused displacement feeds a
            shifter, multiplier, divider or logical unit.
        fused_double_disp_penalty: Extra cycles when both register inputs of a
            register-register operation carry displacements.
        fusion_penalty_all_ops: Sensitivity knob from §3.3 — extra cycles
            charged for *every* fused operation (models 3-input adders not
            being free).
    """

    name: str = "RENO"
    enable_move_elimination: bool = True
    enable_constant_folding: bool = True
    enable_integration: bool = True
    integration_policy: str = IT_POLICY_LOADS_ONLY
    it_entries: int = 512
    it_associativity: int = 2
    displacement_bits: int = 16
    allow_dependent_eliminations: bool = False
    fused_nonadd_penalty: int = 1
    fused_double_disp_penalty: int = 1
    fusion_penalty_all_ops: int = 0

    def validate(self) -> None:
        if self.integration_policy not in (IT_POLICY_LOADS_ONLY, IT_POLICY_FULL):
            raise ValueError(f"unknown integration policy {self.integration_policy!r}")
        if self.it_entries % self.it_associativity:
            raise ValueError("it_entries must be a multiple of it_associativity")
        if self.displacement_bits < 4 or self.displacement_bits > 32:
            raise ValueError("displacement_bits out of range")

    # ------------------------------------------------------------------
    # Serialization / hashing (used by the experiment cache)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """All fields as a plain JSON-serialisable dictionary."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RenoConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)

    def digest(self) -> str:
        """Stable content hash of the *behavioural* fields (``name`` is a
        report label and is excluded; see :mod:`repro.confighash`)."""
        return dataclass_digest(self)

    # ------------------------------------------------------------------
    # Named configurations used throughout the evaluation
    # ------------------------------------------------------------------

    @staticmethod
    def reno_me() -> "RenoConfig":
        """Move elimination only (the oldest RENO-style optimization)."""
        return RenoConfig(name="ME", enable_constant_folding=False,
                          enable_integration=False)

    @staticmethod
    def reno_cf_me() -> "RenoConfig":
        """Move elimination + constant folding, no integration table."""
        return RenoConfig(name="CF+ME", enable_integration=False)

    @staticmethod
    def reno_default() -> "RenoConfig":
        """The paper's RENO: CF handles ALU ops, the IT handles loads."""
        return RenoConfig(name="RENO")

    @staticmethod
    def reno_full_integration() -> "RenoConfig":
        """RENO plus a full integration table (may also eliminate ALU ops)."""
        return RenoConfig(name="RENO+FullInteg", integration_policy=IT_POLICY_FULL)

    @staticmethod
    def integration_only_full() -> "RenoConfig":
        """Register integration alone (no CF), eliminating all kinds (§4.4)."""
        return RenoConfig(name="FullInteg", enable_move_elimination=False,
                          enable_constant_folding=False,
                          integration_policy=IT_POLICY_FULL)

    @staticmethod
    def integration_only_loads() -> "RenoConfig":
        """Register integration alone, restricted to loads (§4.4)."""
        return RenoConfig(name="LoadsInteg", enable_move_elimination=False,
                          enable_constant_folding=False,
                          integration_policy=IT_POLICY_LOADS_ONLY)

    def with_slow_fusion(self) -> "RenoConfig":
        """Copy where every fused operation pays an extra cycle (§3.3)."""
        return replace(self, name=f"{self.name}-slowfuse", fusion_penalty_all_ops=1)

    def with_displacement_bits(self, bits: int) -> "RenoConfig":
        """Copy with a narrower/wider map-table displacement field (ablation)."""
        return replace(self, name=f"{self.name}-d{bits}", displacement_bits=bits)
