"""Unit tests for the Table 1 configuration objects."""

import pytest

from repro.errors import ConfigError
from repro.gpu.config import (
    EtcConfig,
    GpuConfig,
    SimConfig,
    ToConfig,
    UvmConfig,
)


class TestGpuConfig:
    def test_table1_defaults(self):
        gpu = GpuConfig()
        assert gpu.num_sms == 16
        assert gpu.threads_per_sm == 1024
        assert gpu.register_file_bytes_per_sm == 256 * 1024
        assert gpu.l1_tlb_entries == 64
        assert gpu.l2_tlb_entries == 1024
        assert gpu.l2_tlb_assoc == 32
        assert gpu.memory_latency_cycles == 200
        assert gpu.max_concurrent_walks == 64

    def test_derived_quantities(self):
        gpu = GpuConfig()
        assert gpu.registers_per_sm == 65536

    def test_rejects_bad_sm_count(self):
        with pytest.raises(ConfigError):
            GpuConfig(num_sms=0)

    def test_rejects_nonwarp_thread_count(self):
        with pytest.raises(ConfigError):
            GpuConfig(threads_per_sm=1000)

    def test_rejects_bad_tlb_geometry(self):
        with pytest.raises(ConfigError):
            GpuConfig(l2_tlb_entries=1000, l2_tlb_assoc=32)


class TestUvmConfig:
    def test_table1_defaults(self):
        uvm = UvmConfig()
        assert uvm.page_size == 64 * 1024
        assert uvm.fault_buffer_entries == 1024
        assert uvm.fault_handling_cycles == 20_000
        assert uvm.pcie_h2d_gbps == pytest.approx(15.75)

    def test_page_transfer_time_matches_bandwidth(self):
        uvm = UvmConfig()
        # 64 KB over 15.75 GB/s is ~4161 ns = ~4161 cycles at 1 GHz.
        assert uvm.h2d_cycles_per_page() == pytest.approx(4161, abs=2)

    def test_d2h_faster_than_h2d_by_default(self):
        uvm = UvmConfig()
        assert uvm.d2h_cycles_per_page() < uvm.h2d_cycles_per_page()

    def test_page_shift(self):
        assert UvmConfig().page_shift == 16
        assert UvmConfig(page_size=4096).page_shift == 12

    def test_frames(self):
        uvm = UvmConfig(gpu_memory_bytes=640 * 1024)
        assert uvm.frames == 10
        assert UvmConfig().frames is None

    def test_rejects_non_power_of_two_pages(self):
        with pytest.raises(ConfigError):
            UvmConfig(page_size=60_000)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigError):
            UvmConfig(replacement_policy="mru")

    def test_rejects_unknown_prefetcher(self):
        with pytest.raises(ConfigError):
            UvmConfig(prefetcher="oracle")

    def test_rejects_submarine_memory(self):
        with pytest.raises(ConfigError):
            UvmConfig(gpu_memory_bytes=1024)


class TestSimConfig:
    def test_default_is_serialized_eviction(self):
        assert SimConfig().eviction == "serialized"

    def test_rejects_unknown_eviction(self):
        with pytest.raises(ConfigError):
            SimConfig(eviction="magic")

    def test_with_memory_bytes(self):
        cfg = SimConfig().with_memory_bytes(2 * 1024 * 1024)
        assert cfg.uvm.gpu_memory_bytes == 2 * 1024 * 1024

    def test_with_oversubscription_half(self):
        cfg = SimConfig().with_oversubscription(100 * 64 * 1024, 0.5)
        assert cfg.uvm.frames == 50

    def test_with_oversubscription_full_means_unlimited(self):
        cfg = SimConfig().with_oversubscription(100 * 64 * 1024, 1.0)
        assert cfg.uvm.gpu_memory_bytes is None

    def test_with_oversubscription_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            SimConfig().with_oversubscription(1024, 0)

    def test_oversubscription_floors_to_one_page(self):
        cfg = SimConfig().with_oversubscription(64 * 1024, 0.1)
        assert cfg.uvm.frames == 1


class TestToEtcConfigs:
    def test_to_defaults_disabled(self):
        to = ToConfig()
        assert not to.enabled
        assert to.monitor_period_cycles == 100_000
        assert to.lifetime_drop_threshold == pytest.approx(0.20)

    def test_etc_defaults(self):
        etc = EtcConfig()
        assert not etc.enabled
        assert not etc.proactive_eviction
        assert etc.throttle_fraction == pytest.approx(0.5)
