"""TCP behaviour tests: transfer correctness, recovery machinery.

End-to-end cases run on a tiny single-switch testbed (no CPU model, so
the network is the only variable); unit cases poke the sender directly.
"""

import pytest

from repro.experiments.harness import Testbed, TestbedConfig
from repro.host.tcp import LOSS, OPEN, RECOVERY, TcpConfig
from repro.units import KB, MB, msec, usec


def mini_testbed(scheme="optimal", **cfg_kwargs):
    kwargs = dict(n_leaves=1, hosts_per_leaf=2, model_cpu=False)
    kwargs.update(cfg_kwargs)
    return Testbed(TestbedConfig(scheme=scheme, **kwargs))


def test_sized_transfer_completes_exactly():
    tb = mini_testbed()
    app = tb.add_elephant(0, 1, size_bytes=500 * KB)
    tb.run(msec(50))
    assert app.fct_ns is not None
    receiver = tb.hosts[1].receivers[app.flow_id]
    assert receiver.delivered_bytes == 500 * KB
    assert receiver.rcv_nxt == 500 * KB


def test_transfer_is_contiguous_no_gaps():
    tb = mini_testbed()
    app = tb.add_elephant(0, 1, size_bytes=200 * KB)
    tb.run(msec(50))
    receiver = tb.hosts[1].receivers[app.flow_id]
    assert not receiver.ooo  # nothing left out of order


def test_unbounded_flow_reaches_line_rate():
    tb = mini_testbed()
    app = tb.add_elephant(0, 1)
    tb.run(msec(10))
    rate = app.delivered_bytes() * 8 / 10e-3
    assert rate > 9e9  # ~9.4 Gbps goodput on a 10 Gbps link


def test_fct_scales_with_size():
    tb = mini_testbed()
    small = tb.add_elephant(0, 1, size_bytes=50 * KB)
    tb.run(msec(30))
    tb2 = mini_testbed()
    big = tb2.add_elephant(0, 1, size_bytes=2 * MB)
    tb2.run(msec(50))
    assert small.fct_ns < big.fct_ns


def test_two_flows_share_receiver_link():
    tb = mini_testbed(hosts_per_leaf=3)
    a = tb.add_elephant(0, 2)
    b = tb.add_elephant(1, 2, start_ns=usec(200))
    tb.run(msec(30))
    ra = a.delivered_bytes() * 8 / 30e-3 / 1e9
    rb = b.delivered_bytes() * 8 / 30e-3 / 1e9
    assert 8.5 < ra + rb < 9.6  # receiver link saturated
    assert min(ra, rb) > 1.0    # nobody starved


def test_loss_recovery_under_tiny_buffer():
    """A shallow switch buffer forces real loss; the transfer must still
    complete, with retransmissions."""
    tb = mini_testbed(hosts_per_leaf=3, switch_buffer_bytes=30 * KB)
    a = tb.add_elephant(0, 2, size_bytes=1 * MB)
    b = tb.add_elephant(1, 2, size_bytes=1 * MB, start_ns=usec(100))
    tb.run(msec(200))
    sa = tb.hosts[0].senders[a.flow_id]
    sb = tb.hosts[1].senders[b.flow_id]
    assert a.fct_ns is not None, "flow a did not complete"
    assert b.fct_ns is not None, "flow b did not complete"
    assert sa.bytes_retx + sb.bytes_retx > 0
    assert tb.hosts[2].receivers[a.flow_id].delivered_bytes == 1 * MB
    assert tb.hosts[2].receivers[b.flow_id].delivered_bytes == 1 * MB


class TestSenderUnit:
    def make_sender(self):
        tb = mini_testbed()
        sender = tb.hosts[0].open_sender(999, 1)
        return tb, sender

    def test_write_requires_positive(self):
        _, sender = self.make_sender()
        with pytest.raises(ValueError):
            sender.write(0)

    def test_initial_state(self):
        _, sender = self.make_sender()
        assert sender.state == OPEN
        assert sender.snd_una == sender.snd_nxt == 0

    def test_rtt_estimator_converges(self):
        tb = mini_testbed()
        app = tb.add_elephant(0, 1, size_bytes=500 * KB)
        tb.run(msec(50))
        sender = tb.hosts[0].senders[app.flow_id]
        assert sender.srtt_ns is not None
        # idle-ish path: srtt well under a millisecond
        assert sender.srtt_ns < msec(2)

    def test_rto_floor_respected(self):
        tb = mini_testbed()
        app = tb.add_elephant(0, 1, size_bytes=100 * KB)
        tb.run(msec(50))
        sender = tb.hosts[0].senders[app.flow_id]
        assert sender.rto_ns >= tb.cfg.tcp.min_rto_ns

    def test_jitter_factor_bounds(self):
        _, sender = self.make_sender()
        for timeouts in range(20):
            sender.timeouts = timeouts
            assert 1.0 <= sender._rto_jitter() < 1.1000001


def test_rto_fires_when_network_blackholes():
    tb = mini_testbed()
    app = tb.add_elephant(0, 1, size_bytes=100 * KB)
    tb.run(usec(50))  # let some packets into the fabric
    # kill the only link to the receiver
    for link in tb.topo.links:
        link.set_down()
    tb.run(msec(100))
    sender = tb.hosts[0].senders[app.flow_id]
    assert sender.timeouts >= 1
    assert sender.state == LOSS


def test_completion_callback_fires_once():
    tb = mini_testbed()
    done = []
    app = tb.add_elephant(0, 1, size_bytes=64 * KB,
                          on_complete=lambda a: done.append(a))
    tb.run(msec(20))
    assert len(done) == 1


def test_mice_interleaved_with_elephant_complete():
    tb = mini_testbed(hosts_per_leaf=3)
    tb.add_elephant(0, 2)
    mice = tb.add_mice(1, 2, interval_ns=msec(2))
    tb.run(msec(30))
    assert len(mice.fcts_ns) >= 10
    assert all(f > 0 for f in mice.fcts_ns)
