"""repro — a reproduction of *Presto: Edge-based Load Balancing for
Fast Datacenter Networks* (SIGCOMM 2015) on a packet-level
discrete-event simulator.

Quickstart, with ``Testbed``/``TestbedConfig`` from
:mod:`repro.experiments.harness` and ``msec`` from :mod:`repro.units`::

    tb = Testbed(TestbedConfig(scheme="presto"))
    app = tb.add_elephant(src=0, dst=8)      # host 0 -> host 8 elephant
    tb.run(msec(20))
    print(app.delivered_bytes() * 8 / 20e-3 / 1e9, "Gbps")

A package is a namespace: import each name from the module that
defines it.  See DESIGN.md for the system inventory and EXPERIMENTS.md
for the paper-versus-measured results of every table and figure.
"""
