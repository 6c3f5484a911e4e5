"""One module per workload; each exports ``WORKLOAD`` (a ``bench.Workload``)."""
