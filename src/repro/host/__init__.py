"""End-host stack: NIC offloads, GRO, CPU model, TCP, applications."""
