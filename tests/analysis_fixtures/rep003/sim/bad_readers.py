"""Bad: a result path reading a gauge and a timer back out of the registry."""


def step(metrics, queue):
    if metrics.gauge("runtime.worker_utilization") < 0.5:
        queue = queue[1:]
    if metrics.timer_seconds("sim.step") > 1.0:
        queue = queue[:-1]
    return queue
