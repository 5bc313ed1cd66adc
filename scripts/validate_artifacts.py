#!/usr/bin/env python3
"""Validate the artifacts the CLI tools write: traces, reports, metrics,
profiles, flight dumps, statusz snapshots and event logs.

One subcommand per check; each takes the paths it reads and exits
non-zero with an AssertionError naming the failed invariant.

    validate_artifacts.py search --trace T --report R --metrics M
    validate_artifacts.py batch --report R --trace T
    validate_artifacts.py prefilter --plain R --report R2
    validate_artifacts.py fault-trace --trace T
    validate_artifacts.py service --metrics M --log L
    validate_artifacts.py profile --profile P
    validate_artifacts.py serve-observability --flights D --statusz S \\
        --events E --profile P
    validate_artifacts.py sharded --report R [--shards K]
    validate_artifacts.py cli-smoke --bin-dir B --work-dir W

`cli-smoke` generates a small database with database_tools, runs
blastp_cli for a single search, a K=4 batch and a fault-schedule run, and
applies the search, batch, sharded and fault-trace checks to the outputs.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path


def load(path):
    with open(path) as f:
        return json.load(f)


def trace_events(path):
    return load(path)['traceEvents']


def check_search(trace_path, report_path, metrics_path):
    trace = load(trace_path)
    assert trace['displayTimeUnit'] == 'ms'
    events = trace['traceEvents']
    names = {e['name'] for e in events}
    for span in ['cublastp.search', 'query_prep', 'hit_detection',
                 'bin_scan', 'hit_assemble', 'hit_sort', 'hit_filter',
                 'ungapped_extension', 'h2d_query', 'h2d_block',
                 'd2h_extensions', 'gapped_stage', 'finalize']:
        assert span in names, f'missing trace span: {span}'
    tracks = {e['args']['name'] for e in events
              if e['ph'] == 'M' and e['name'] == 'thread_name'}
    assert any(t.startswith('engine-worker-') for t in tracks), tracks
    assert 'GPU + PCIe (modeled)' in tracks, tracks
    assert any(t.endswith('(modeled)') and t.startswith('cpu-worker-')
               for t in tracks), tracks
    reports = load(report_path)
    assert len(reports) == 1
    report = reports[0]
    assert report['schema'] == 'cublastp.search_report.v4'
    assert report['status'] == 'ok'
    assert report['wall_ms'] > 0
    assert report['gpu_ms']['hit_detection'] > 0
    assert report['alignments']['count'] > 0
    assert report['prefilter']['mode'] == 'off'
    assert report['prefilter']['sequences_scored'] == 0
    lines = open(metrics_path).read().splitlines()
    assert any(l.startswith('repro_engine_launches ') for l in lines)
    assert '# TYPE repro_core_search_wall_seconds histogram' in lines
    print(f'trace: {len(events)} events; report + metrics OK')


def check_batch(report_path, trace_path):
    report = load(report_path)
    assert report['schema'] == 'cublastp.batch_report.v4'
    assert report['queries'] == 3
    assert len(report['reports']) == 3
    assert report['statuses'] == ['ok'] * 3
    for per_query in report['reports']:
        assert per_query['schema'] == 'cublastp.search_report.v4'
        assert per_query['status'] == 'ok'
        assert per_query['alignments']['count'] > 0
    # The session uploads the database exactly once for the batch.
    h2d = report['h2d']
    assert h2d['block_bytes_uploaded'] == h2d['db_device_bytes'], h2d
    assert report['modeled']['batch_seconds'] <= \
        report['modeled']['sequential_seconds']
    events = trace_events(trace_path)
    names = {e['name'] for e in events}
    for span in ['cublastp.search_batch', 'batch.query 0',
                 'batch.query 2', 'h2d_block', 'hit_detection',
                 'gapped_stage', 'finalize']:
        assert span in names, f'missing trace span: {span}'
    uploads = sum(1 for e in events
                  if e['name'] == 'h2d_block' and e['ph'] == 'X')
    assert uploads == h2d['block_uploads'], (uploads, h2d)
    print(f'batch report + trace OK ({uploads} block uploads)')


def check_prefilter(plain_path, report_path):
    plain = load(plain_path)[0]
    report = load(report_path)[0]
    assert report['schema'] == 'cublastp.search_report.v4'
    pre = report['prefilter']
    assert pre['mode'] == 'auto'
    assert pre['threshold'] > 0
    assert pre['sequences_scored'] > 0
    assert 0.0 <= pre['pass_rate'] <= 1.0
    assert pre['degraded_blocks'] == 0
    assert len(pre['block_backends']) > 0
    assert all(b in ('fine', 'fine_filtered', 'coarse', 'cpu')
               for b in pre['block_backends'])
    # Lossless: identical top hits and downstream work vs the
    # unfiltered run.
    assert report['alignments'] == plain['alignments']
    assert report['counters']['gapped_extensions'] == \
        plain['counters']['gapped_extensions']
    print(f"prefilter report OK (pass_rate={pre['pass_rate']:.3f}, "
          f"backends={pre['block_backends']})")


def check_fault_trace(trace_path):
    names = {e['name'] for e in trace_events(trace_path)}
    for instant in ['degrade.cache_off_retry', 'degrade.gpu_exhausted',
                    'degrade.cpu_fallback', 'faults_absorbed']:
        assert instant in names, f'missing instant: {instant}'
    assert 'cpu_fallback' in names
    print('degradation instants OK')


def check_service(metrics_path, log_path):
    metrics = load(metrics_path)
    c = metrics['counters']
    submitted = c['service.submitted']
    admitted = c['service.admitted']
    rejected = c.get('service.rejected', 0)
    assert submitted == 18, submitted  # 2 clients x 3 repeats x 3 queries
    assert submitted == admitted + rejected, c
    # The 18-request burst against a 5-slot queue must trip admission
    # control: at most capacity + 1 in-flight requests fit.
    assert rejected >= 1, c
    # Every admitted request resolved to exactly one terminal state.
    resolved = (c.get('service.completed', 0) +
                c.get('service.cancelled', 0) +
                c.get('service.deadline_exceeded', 0) +
                c.get('service.failed', 0))
    assert resolved == admitted, c
    # The pre-cancelled query and the 1 us deadline both surfaced, and at
    # least one plain request ran to completion.
    assert c.get('service.completed', 0) >= 1, c
    assert c.get('service.cancelled', 0) >= 1, c
    assert c.get('service.deadline_exceeded', 0) >= 1, c
    assert c.get('service.failed', 0) == 0, c
    assert metrics['gauges']['service.queue_depth'] == 0
    assert metrics['histograms']['service.queue_wait_seconds']['count'] \
        == admitted
    log = open(log_path).read()
    assert 'deadline_exceeded' in log and 'cancelled' in log, log
    print(f'service smoke OK: {submitted} submitted, '
          f'{admitted} admitted, {rejected} rejected')


def check_profile(profile_path):
    prof = load(profile_path)
    assert prof['schema'] == 'cublastp.profile.v1'
    assert prof['searches'] == 2
    total = prof['modeled_total_ms']
    assert total > 0
    phase_sum = sum(p['modeled_ms'] for p in prof['phases'])
    # The acceptance invariant: phases reconcile with the engine total to
    # within 1%.
    assert abs(phase_sum - total) <= 0.01 * total, (phase_sum, total)
    names = {p['phase'] for p in prof['phases']}
    for phase in ['hit_detection', 'sorting', 'extension', 'h2d']:
        assert phase in names, f'missing phase: {phase}'
    share = sum(p['share'] for p in prof['phases'])
    assert abs(share - 1.0) < 0.01, share
    print(f'profile OK: {len(prof["phases"])} phases, '
          f'{total:.3f} ms modeled')


def check_serve_observability(flights_dir, statusz_path, events_path,
                              profile_path):
    # Tail-based retention: every dump is a deadline_exceeded request, and
    # every deadline_exceeded request dumped.
    dumps = sorted(glob.glob(os.path.join(flights_dir, 'flight_*.json')))
    assert dumps, 'no flight dumps'
    for path in dumps:
        other = load(path)['otherData']
        assert other['status'] == 'deadline_exceeded', (path, other)
        assert 'deadline_exceeded' in path, path
    statusz = load(statusz_path)
    assert statusz['schema'] == 'cublastp.statusz.v1'
    stats = statusz['stats']
    assert stats['submitted'] == 8  # 2 clients x 2 repeats x 2 queries
    assert stats['deadline_exceeded'] == len(dumps)
    assert statusz['slo']['flight_dumps'] == len(dumps)
    assert statusz['queues']['total'] == 0
    events = [json.loads(l) for l in open(events_path)]
    names = [e['event'] for e in events]
    for expected in ['service.start', 'service.admit', 'service.dispatch',
                     'service.complete', 'service.flight_dump',
                     'service.drain']:
        assert expected in names, f'missing event: {expected}'
    assert names.count('service.flight_dump') == len(dumps)
    seqs = [e['seq'] for e in events]
    assert seqs == list(range(len(events))), 'seq gap in event log'
    serve_profile = load(profile_path)
    assert serve_profile['schema'] == 'cublastp.profile.v1'
    assert serve_profile['searches'] >= 1
    print(f'simtprof smoke OK: {len(dumps)} flight dumps, '
          f'{len(events)} events')


def check_shard_totals(report):
    """A report's degradation totals are the sums over its shards[]."""
    shards = report['shards']
    degradation = report['degradation']
    for total, field in (
            (degradation['degraded_blocks'], 'degraded_blocks'),
            (degradation['cache_off_retries'], 'cache_off_retries'),
            (degradation['bin_overflow_retries'], 'bin_overflow_retries'),
            (report['prefilter']['degraded_blocks'],
             'prefilter_degraded_blocks')):
        assert total == sum(s[field] for s in shards), (field, total, shards)
    assert sum(degradation['retry_counts']) == \
        sum(s['retry_attempts'] for s in shards), (degradation, shards)


def check_sharded(report_path, expected_shards):
    doc = load(report_path)
    assert doc['schema'] == 'cublastp.batch_report.v4', doc['schema']
    assert doc['shards'] == expected_shards, doc['shards']
    for report in doc['reports']:
        shards = report['shards']
        assert len(shards) == expected_shards, len(shards)
        blocks = sum(len(s['backends']) for s in shards)
        assert blocks == len(report['prefilter']['block_backends'])
        assert all(b == 'fine' for s in shards for b in s['backends'])
        assert report['hazards']['total'] == 0
        check_shard_totals(report)
    print(f'sharded smoke OK: {len(doc["reports"])} queries x '
          f'{expected_shards} shards')


def cli_smoke(bin_dir, work_dir):
    bin_dir = Path(bin_dir)
    work = Path(work_dir)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tools = str(bin_dir / 'database_tools')
    cli = str(bin_dir / 'blastp_cli')
    env = {k: v for k, v in os.environ.items()
           if k not in ('REPRO_FAULTS', 'REPRO_TRACE', 'REPRO_METRICS',
                        'REPRO_PROFILE')}

    def run(args, **overrides):
        print('+', ' '.join(args), flush=True)
        subprocess.run(args, check=True, stdout=subprocess.DEVNULL,
                       env=dict(env, **overrides))

    db = str(work / 'db.fasta')
    run([tools, 'generate', f'--out={db}', '--seqs=100',
         '--plant_query_len=517'])
    queries = []
    for length in (127, 258, 517):
        path = work / f'q{length}.fasta'
        run([tools, 'query', f'--out={path}', f'--len={length}'])
        queries.append(path.read_text())
    (work / 'batch.fasta').write_text(''.join(queries))
    q517 = str(work / 'q517.fasta')

    run([cli, f'--query={q517}', f'--db={db}', '--engine_workers=2',
         f'--trace={work / "trace.json"}',
         f'--metrics={work / "metrics.prom"}',
         f'--report-json={work / "report.json"}', '--report'])
    check_search(work / 'trace.json', work / 'report.json',
                 work / 'metrics.prom')

    run([cli, f'--batch={work / "batch.fasta"}', f'--db={db}',
         '--shards=4', f'--trace={work / "batch_trace.json"}',
         f'--report-json={work / "batch_report.json"}'])
    check_batch(work / 'batch_report.json', work / 'batch_trace.json')
    check_sharded(work / 'batch_report.json', 4)

    run([cli, f'--query={q517}', f'--db={db}', '--shards=4',
         f'--trace={work / "fault_trace.json"}',
         f'--report-json={work / "fault_report.json"}'],
        REPRO_FAULTS='simt.launch:every=1')
    check_fault_trace(work / 'fault_trace.json')
    fault_report = load(work / 'fault_report.json')[0]
    assert fault_report['degradation']['degraded_blocks'] > 0, fault_report
    check_shard_totals(fault_report)
    print('cli smoke OK')


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest='command', required=True)

    p = sub.add_parser('search', help='single-search trace/report/metrics')
    p.add_argument('--trace', required=True)
    p.add_argument('--report', required=True)
    p.add_argument('--metrics', required=True)

    p = sub.add_parser('batch', help='batch report and trace')
    p.add_argument('--report', required=True)
    p.add_argument('--trace', required=True)

    p = sub.add_parser('prefilter', help='pre-filtered vs plain report')
    p.add_argument('--plain', required=True)
    p.add_argument('--report', required=True)

    p = sub.add_parser('fault-trace', help='degradation instants in a trace')
    p.add_argument('--trace', required=True)

    p = sub.add_parser('service', help='service counters and outcomes')
    p.add_argument('--metrics', required=True)
    p.add_argument('--log', required=True)

    p = sub.add_parser('profile', help='continuous-profiler export')
    p.add_argument('--profile', required=True)

    p = sub.add_parser('serve-observability',
                       help='flight dumps, statusz, event log, profile')
    p.add_argument('--flights', required=True)
    p.add_argument('--statusz', required=True)
    p.add_argument('--events', required=True)
    p.add_argument('--profile', required=True)

    p = sub.add_parser('sharded', help="batch report's shard sections")
    p.add_argument('--report', required=True)
    p.add_argument('--shards', type=int, default=4)

    p = sub.add_parser('cli-smoke', help='run the CLI tools and validate')
    p.add_argument('--bin-dir', required=True)
    p.add_argument('--work-dir', required=True)

    args = parser.parse_args(argv)
    if args.command == 'search':
        check_search(args.trace, args.report, args.metrics)
    elif args.command == 'batch':
        check_batch(args.report, args.trace)
    elif args.command == 'prefilter':
        check_prefilter(args.plain, args.report)
    elif args.command == 'fault-trace':
        check_fault_trace(args.trace)
    elif args.command == 'service':
        check_service(args.metrics, args.log)
    elif args.command == 'profile':
        check_profile(args.profile)
    elif args.command == 'serve-observability':
        check_serve_observability(args.flights, args.statusz, args.events,
                                  args.profile)
    elif args.command == 'sharded':
        check_sharded(args.report, args.shards)
    elif args.command == 'cli-smoke':
        cli_smoke(args.bin_dir, args.work_dir)
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
