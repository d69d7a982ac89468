"""Per-layer accelerator energy models (sparsity-dependent, like latency).

The latency models in :mod:`repro.accel` already make per-layer cost a
function of the weight pattern and the input's dynamic sparsity; this module
gives the same two accelerator families the *other* axis every multi-DNN
accelerator paper reports: joules.  A layer's energy splits into

* **dynamic energy** — charged per operation, so it scales with the number
  of *effectual* MACs (the same weight-density x activation-density
  interplay that drives the latency models; skipped positions still pay a
  small clock-gating cost) plus, for Eyeriss, the DRAM traffic of streaming
  compressed weights;
* **static energy** — leakage and clock-tree power drawn for as long as the
  layer *occupies* the accelerator, i.e. ``static_power_w x latency``.  A
  slower schedule therefore burns more static energy for identical work,
  which is what makes energy a scheduling objective at all.

Because every family's dynamic term is (piecewise-)affine in activation
density, a model compiles per (model graph, weight config) into a
:class:`LayerEnergyTable` of coefficients

    E_dyn[j](s) = c0[j] + c1[j] * min(1, (1 - s) * k[j])          [joules]

that both the offline :class:`~repro.energy.lut.EnergyLUT` averages and the
runtime :class:`~repro.energy.accounting.EnergyAccountant` evaluate — one
formula, so estimates and ground-truth accounting can never diverge
structurally.  An ``idle_power_w`` below the active static power models a
provisioned-but-idle accelerator (power-gated PE array, DRAM in self
refresh); the cluster tier charges it for unused provisioned capacity.

Absolute joules are calibrated to public figures only loosely (pJ/MAC-class
dynamic energy, DRAM ~160 pJ/byte, sub-watt Eyeriss vs watt-class Sanger);
as with the latency models, scheduling conclusions depend only on relative
scale.
"""

from __future__ import annotations

import abc
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ProfilingError, SparsityError
from repro.models.graph import Layer, LayerKind, ModelFamily, ModelGraph
from repro.sparsity.patterns import (
    SparsityPattern,
    WeightSparsityConfig,
    pattern_overlap_gain,
)

_PJ = 1e-12  # picojoules -> joules

_PATTERN_KEY_RE = re.compile(r"^(random|channel)(\d+(?:\.\d+)?)$")
_NM_KEY_RE = re.compile(r"^nm(\d+):(\d+)$")


def parse_pattern_key(key: str) -> WeightSparsityConfig:
    """Invert :attr:`WeightSparsityConfig.key` (``dense``, ``nm2:8``,
    ``random0.80``, ``channel0.60``) back into a config.

    The energy layer is built *after* profiling, from LUT keys alone, so it
    must recover the weight configuration from the key string.
    """
    if key == "dense":
        return WeightSparsityConfig(SparsityPattern.DENSE)
    m = _NM_KEY_RE.match(key)
    if m:
        return WeightSparsityConfig(
            SparsityPattern.NM_BLOCK, nm=(int(m.group(1)), int(m.group(2)))
        )
    m = _PATTERN_KEY_RE.match(key)
    if m:
        return WeightSparsityConfig(SparsityPattern(m.group(1)), rate=float(m.group(2)))
    raise SparsityError(f"unparseable weight-pattern key {key!r}")


@dataclass(frozen=True)
class LayerEnergyTable:
    """Compiled per-layer energy coefficients of one (model, pattern) pair.

    ``dynamic(s)[j] = c0[j] + c1[j] * min(1, (1 - s[j]) * k[j])`` joules;
    static energy is ``static_power_w`` times however long the layer actually
    took (so it prices pool speed, preemption stalls and switch overheads
    exactly as the wall clock saw them).

    ``c0_t``/``c1_t``/``k_t`` are tuple mirrors of the three columns, built
    once; they are plain attributes, not fields, so equality, repr and
    ``dataclasses.fields`` see only the arrays.  Scalar hot paths index
    them to skip numpy boxing.
    """

    c0: np.ndarray
    c1: np.ndarray
    k: np.ndarray
    static_power_w: float
    idle_power_w: float
    #: Joules of one weight (re)load from DRAM — charged per model switch
    #: (the engines count switches; ``switch_cost`` prices their *time*).
    switch_joules: float = 0.0
    #: True for proxy tables synthesized from latency averages alone (key
    #: outside the model zoo); see :meth:`EnergyLUT.from_model_lut`.
    synthetic: bool = False

    def __post_init__(self) -> None:
        c0 = np.asarray(self.c0, dtype=float)
        c1 = np.asarray(self.c1, dtype=float)
        k = np.asarray(self.k, dtype=float)
        if not (c0.shape == c1.shape == k.shape) or c0.ndim != 1 or c0.size == 0:
            raise ProfilingError("energy table columns must be equal-length 1-D arrays")
        if (c0 < 0).any() or (c1 < 0).any() or (k <= 0).any():
            raise ProfilingError("energy coefficients must be >= 0 (k > 0)")
        if self.static_power_w < 0 or self.idle_power_w < 0:
            raise ProfilingError("power ratings must be >= 0")
        if self.switch_joules < 0:
            raise ProfilingError("switch energy must be >= 0")
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "c0_t", tuple(c0.tolist()))
        object.__setattr__(self, "c1_t", tuple(c1.tolist()))
        object.__setattr__(self, "k_t", tuple(k.tolist()))

    @property
    def num_layers(self) -> int:
        return int(self.c0.size)

    def dynamic(self, sparsities, start: int = 0) -> np.ndarray:
        """Per-layer dynamic joules for layers ``start..start+len(s)-1``."""
        s = np.asarray(sparsities, dtype=float)
        end = start + s.shape[-1]
        density = np.minimum(1.0, (1.0 - s) * self.k[start:end])
        return self.c0[start:end] + self.c1[start:end] * density

    def dynamic_at(self, j: int, sparsity: float) -> float:
        """Dynamic joules of layer ``j`` at one observed sparsity (O(1)).

        Plain-float arithmetic, bit-identical to ``dynamic([s], start=j)[0]``:
        ``-``, ``*`` and ``+`` are correctly rounded in numpy ufuncs and
        Python floats alike, and the clamp picks the same value.
        """
        density = (1.0 - sparsity) * self.k_t[j]
        if density > 1.0:
            density = 1.0
        return self.c0_t[j] + self.c1_t[j] * density

    def total(self, sparsities, latencies) -> np.ndarray:
        """Per-layer joules including static energy over ``latencies``."""
        return self.dynamic(sparsities) + self.static_power_w * np.asarray(
            latencies, dtype=float
        )


class EnergyModel(abc.ABC):
    """Analytic per-layer accelerator energy model (one per family)."""

    #: Human-readable model name.
    name: str = "energy"
    #: Active leakage + clock power while executing, watts.
    static_power_w: float = 0.0
    #: Power drawn by a provisioned-but-idle accelerator, watts.
    idle_power_w: float = 0.0

    @abc.abstractmethod
    def layer_coefficients(
        self, layer: Layer, weights: WeightSparsityConfig
    ) -> tuple:
        """``(c0, c1, k)`` joules-vs-density coefficients of one layer."""

    def switch_energy_joules(
        self, model: ModelGraph, weights: WeightSparsityConfig
    ) -> float:
        """DRAM joules of (re)loading the model's weights on a switch."""
        return 0.0

    def layer_table(
        self, model: ModelGraph, weights: WeightSparsityConfig
    ) -> LayerEnergyTable:
        """Compile the whole model into a :class:`LayerEnergyTable`."""
        coeffs = [self.layer_coefficients(layer, weights) for layer in model.layers]
        return LayerEnergyTable(
            c0=np.array([c[0] for c in coeffs]),
            c1=np.array([c[1] for c in coeffs]),
            k=np.array([c[2] for c in coeffs]),
            static_power_w=self.static_power_w,
            idle_power_w=self.idle_power_w,
            switch_joules=self.switch_energy_joules(model, weights),
        )

    def model_energies(
        self,
        model: ModelGraph,
        weights: WeightSparsityConfig,
        activation_sparsities: np.ndarray,
        latencies: np.ndarray,
    ) -> np.ndarray:
        """Per-layer joules for a batch of samples (mirrors
        :meth:`~repro.accel.base.Accelerator.model_latencies`).

        Args:
            activation_sparsities: ``(n_samples, num_layers)`` matrix.
            latencies: matching per-layer execution times in seconds.

        Returns:
            ``(n_samples, num_layers)`` joule matrix.
        """
        s = np.asarray(activation_sparsities, dtype=float)
        lat = np.asarray(latencies, dtype=float)
        if s.ndim != 2 or s.shape[1] != model.num_layers or s.shape != lat.shape:
            raise ProfilingError(
                f"expected matching (n, {model.num_layers}) sparsity/latency "
                f"matrices, got {s.shape} and {lat.shape}"
            )
        table = self.layer_table(model, weights)
        return table.dynamic(s) + table.static_power_w * lat


@dataclass
class EyerissEnergy(EnergyModel):
    """Eyeriss-V2 energy model (CSC zero-skipping CNN accelerator).

    The PE array iterates only the *nonzero weights* (CSC compression), so
    per-position cost applies to ``macs x w_density`` slots; of those, the
    activation-density fraction is effectual (full MAC + operand movement)
    and the rest pay only the clock-gating cost.  Weight streaming from
    DRAM adds a per-byte term on the compressed footprint — charged per
    layer *execution*, matching the latency model's per-layer memory phase:
    Eyeriss holds no whole-model weights resident, so a key switch costs no
    extra DRAM traffic (``switch_energy_joules`` stays 0; contrast Sanger).
    PE-array *utilization* (load imbalance under random patterns) stretches
    time, not per-op energy, so it appears in the static term only — via
    the latency the static power multiplies.
    """

    name: str = "eyeriss_v2"
    #: Energy per effectual 8-bit MAC incl. on-chip operand movement, pJ.
    e_mac_pj: float = 3.2
    #: Clock-gating cost of a skipped (ineffectual) position, pJ.
    e_skip_pj: float = 0.32
    #: DRAM energy per streamed compressed-weight byte, pJ.
    e_dram_pj_per_byte: float = 160.0
    #: Bytes per weight including CSC index overhead (matches the latency
    #: model's streaming-footprint assumption).
    weight_bytes: float = 1.25
    static_power_w: float = 0.275
    idle_power_w: float = 0.11

    def layer_coefficients(
        self, layer: Layer, weights: WeightSparsityConfig
    ) -> tuple:
        if layer.kind not in (LayerKind.CONV, LayerKind.DWCONV, LayerKind.FC):
            raise ProfilingError(
                f"Eyeriss-V2 energy model cannot execute layer kind {layer.kind}"
            )
        w_density = 1.0 - weights.effective_rate
        positions = layer.macs * w_density
        dram = layer.params * w_density * self.weight_bytes * self.e_dram_pj_per_byte
        c0 = (positions * self.e_skip_pj + dram) * _PJ
        c1 = positions * (self.e_mac_pj - self.e_skip_pj) * _PJ
        return c0, c1, 1.0 + pattern_overlap_gain(weights)


@dataclass
class SangerEnergy(EnergyModel):
    """Sanger energy model (dynamic sparse-attention accelerator).

    Attention score/context MACs scale with attention density; the
    load-balance inefficiency of pack-and-split costs *cycles*, not energy
    per op, so (as with Eyeriss utilization) it shows up through the static
    term.  The low-precision sparsity-prediction pass charges a small
    per-score-MAC energy on ``ATTN_SCORE`` layers.  Dense projections/FFNs
    shrink with the token-pruned share, mirroring the latency model.
    """

    name: str = "sanger"
    #: Energy per effectual MAC on the reconfigurable array, pJ.
    e_mac_pj: float = 1.1
    #: Low-precision prediction-pass energy per dense score MAC, pJ.
    e_pred_pj: float = 0.15
    #: Share of dynamic sparsity cascading into token pruning (must match
    #: the latency model so energy and time see the same effectual work).
    token_prune_share: float = 0.6
    #: DRAM energy per weight byte on a model (re)load, pJ.  Sanger keeps
    #: weights resident between layers, so this is charged per switch only.
    e_dram_pj_per_byte: float = 160.0
    #: Bytes per (8-bit) resident weight.
    weight_bytes: float = 1.0
    static_power_w: float = 1.6
    idle_power_w: float = 0.55

    def layer_coefficients(
        self, layer: Layer, weights: WeightSparsityConfig
    ) -> tuple:
        if layer.kind in (LayerKind.ATTN_SCORE, LayerKind.ATTN_CONTEXT):
            pred = (
                layer.macs * self.e_pred_pj * _PJ
                if layer.kind is LayerKind.ATTN_SCORE
                else 0.0
            )
            return pred, layer.macs * self.e_mac_pj * _PJ, 1.0
        if layer.kind in (LayerKind.ATTN_QKV, LayerKind.ATTN_OUT,
                          LayerKind.FFN, LayerKind.FC):
            full = layer.macs * self.e_mac_pj * _PJ
            return (
                full * (1.0 - self.token_prune_share),
                full * self.token_prune_share,
                1.0,
            )
        raise ProfilingError(
            f"Sanger energy model cannot execute layer kind {layer.kind}"
        )

    def switch_energy_joules(
        self, model: ModelGraph, weights: WeightSparsityConfig
    ) -> float:
        """One full weight load into the resident buffers."""
        total_params = sum(layer.params for layer in model.layers)
        return total_params * self.weight_bytes * self.e_dram_pj_per_byte * _PJ


def default_energy_model(family: ModelFamily) -> EnergyModel:
    """The family's energy model, matching the latency-model pairing of
    :func:`repro.profiling.profiler.default_accelerator`."""
    if family is ModelFamily.CNN:
        return EyerissEnergy()
    return SangerEnergy()


def synthetic_table(
    avg_layer_latencies: np.ndarray,
    nominal_power_w: float = 1.0,
    *,
    idle_power_w: float = 0.0,
) -> LayerEnergyTable:
    """A sparsity-blind proxy table: ``E[j] = P_nom x avg latency[j]``.

    Used for LUT keys whose model is outside the zoo registry (synthetic
    unit-test traces, user-defined models): energy degrades to a constant-
    power proxy so every energy API stays total, and the entry is flagged
    ``synthetic`` so reports can call it out.
    """
    lat = np.asarray(avg_layer_latencies, dtype=float)
    if nominal_power_w <= 0:
        raise ProfilingError(
            f"nominal power must be positive, got {nominal_power_w}"
        )
    return LayerEnergyTable(
        c0=nominal_power_w * lat,
        c1=np.zeros_like(lat),
        k=np.ones_like(lat),
        static_power_w=0.0,
        idle_power_w=idle_power_w,
        synthetic=True,
    )
