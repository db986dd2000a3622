//! End-to-end `dasl` pipeline tests: a compiled program, run against a
//! real on-disk corpus through `IoPlan::for_load` and the `IoExecutor`,
//! must be *byte-identical* to the named `Analysis` it spells out — and
//! the plan must show the promised fusion.

use dassa::prelude::*;

/// The flagship example, written for the defaults of
/// `Analysis::Interferometry` at 500 Hz: 0.5 Hz = 0.002 × Nyquist,
/// 24 Hz = 0.096 × Nyquist, resample 1:2.
const EXAMPLE: &str =
    "load(\"corpus\") | detrend | bandpass(0.5, 24) | resample(2) | xcorr(master=ch[0])";

/// Write a 500 Hz synthetic corpus and return its directory.
fn corpus(name: &str, channels: usize, minutes: usize) -> std::path::PathBuf {
    let scene = dasgen::Scene::demo(channels, 500.0, minutes as f64 * 60.0, 7);
    let dir = std::env::temp_dir().join(format!("dassa-dasl-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dasgen::write_minute_files(&scene, &dir, "170728224510", minutes).expect("write corpus");
    dir
}

fn read_f32(vca: &Vca) -> arrayudf::Array2<f32> {
    vca.read_all_f32().expect("read")
}

#[test]
fn example_program_fuses_three_stages_into_one_apply() {
    let program = dasl::compile(EXAMPLE).expect("compile");
    assert_eq!(
        program.fused_stages(),
        2,
        "3 element-wise stages → 2 passes saved"
    );

    let asm = program.disassemble();
    assert!(
        asm.contains("; 3 kernels, one pass"),
        "disassembly must show the fused apply:\n{asm}"
    );
    assert_eq!(asm.matches("apply").count(), 1, "exactly one apply:\n{asm}");
    assert!(asm.contains("2 stages fused"), "{asm}");
}

#[test]
fn program_through_ioplan_matches_hand_wired_interferometry() {
    let dir = corpus("interf", 6, 2);
    let cat = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(cat.entries()).expect("vca");

    // Hand-wired: full read + default interferometry.
    let hand = dasa::run(
        &Analysis::Interferometry(InterferometryParams::default()),
        &read_f32(&vca),
        &Haee::builder().threads(2).build(),
    )
    .expect("hand-wired");

    // Program: load lowers through IoPlan::for_load, the serial
    // executor reads the same chunks, the VM runs the plan.
    let program = dasl::compile(EXAMPLE).expect("compile");
    let plan = IoPlan::for_load(&vca, program.load_spec(), 1).expect("plan");
    let (block, report) = IoExecutor::serial().run(&plan).expect("read");
    assert!(report.is_clean());
    let before = obs::global().snapshot().counter("dasl.fused_stages");
    let prog_out = dasa::run(
        &program.bind(vca.sampling_hz() as f64),
        &block,
        &Haee::builder().threads(2).build(),
    )
    .expect("program");
    let after = obs::global().snapshot().counter("dasl.fused_stages");
    assert_eq!(after - before, 2, "execution bumps the fusion counter");

    // Byte-identical: same reads, same kernels, same order → same bits.
    match (&hand, &prog_out) {
        (AnalysisOutput::Scores(a), AnalysisOutput::Scores(b)) => {
            assert_eq!(a.len(), b.len());
            for (ch, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "channel {ch}: hand-wired {x} != program {y}"
                );
            }
        }
        other => panic!("expected scores from both paths, got {other:?}"),
    }
}

#[test]
fn windowed_load_reads_the_selected_region() {
    let dir = corpus("window", 4, 2);
    let cat = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(cat.entries()).expect("vca");
    let hz = vca.sampling_hz() as u64;

    // 0..60 s of a 120 s corpus, channels 1..3.
    let program = dasl::compile("load(\"corpus\", t=0..60, ch=1..3) | detrend").expect("compile");
    let plan = IoPlan::for_load(&vca, program.load_spec(), 1).expect("plan");
    let (block, _) = IoExecutor::serial().run(&plan).expect("read");
    assert_eq!(block.rows(), 2);
    assert_eq!(block.cols(), (60 * hz) as usize);
    let direct = vca.read_region_f32(1..3, 0..60 * hz).expect("region");
    assert_eq!(block, direct);

    // The window is clamped to the corpus extent.
    let long = dasl::compile("load(\"corpus\", t=60..3600)").expect("compile");
    let plan = IoPlan::for_load(&vca, long.load_spec(), 1).expect("plan");
    let (block, _) = IoExecutor::serial().run(&plan).expect("read");
    assert_eq!(
        block.cols(),
        (60 * hz) as usize,
        "clamped to the 120 s extent"
    );
}

#[test]
fn for_load_rejects_bad_combinations() {
    let dir = corpus("reject", 4, 1);
    let cat = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(cat.entries()).expect("vca");

    // Windowed loads plan a serial region read — no rank split.
    let windowed = dasl::compile("load(\"corpus\", 0..30)").expect("compile");
    let err = IoPlan::for_load(&vca, windowed.load_spec(), 4).unwrap_err();
    assert!(err.to_string().contains("drop --ranks"), "{err}");

    // A window starting past the extent is an error, not an empty read.
    let past = dasl::compile("load(\"corpus\", t=600..660)").expect("compile");
    let err = IoPlan::for_load(&vca, past.load_spec(), 1).unwrap_err();
    assert!(err.to_string().contains("starts past the corpus"), "{err}");
}

#[test]
fn distributed_load_strategies_read_identically() {
    let dir = corpus("dist", 6, 2);
    let cat = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(cat.entries()).expect("vca");
    let expected = vca.read_all_f32().expect("read");

    for strategy in ["auto", "collective", "comm_avoiding", "modeled"] {
        let src = format!("load(\"corpus\", strategy=\"{strategy}\")");
        let program = dasl::compile(&src).expect("compile");
        let plan = IoPlan::for_load(&vca, program.load_spec(), 3).expect("plan");
        let blocks = minimpi::run(3, |comm| IoExecutor::new(comm).run(&plan).expect("exec").0);
        assert_eq!(
            arrayudf::Array2::vstack(&blocks),
            expected,
            "strategy {strategy} diverged"
        );
    }
}

/// The analytic [`dasl::Kernel::out_len`] the compiler and VM use for
/// preallocation must agree with what `dsp::resample` actually emits,
/// for every small p:q ratio and awkward length.
#[test]
fn kernel_out_len_matches_dsp_resample() {
    for p in 1..=6usize {
        for q in 1..=6usize {
            let kernel = dasl::Kernel::Resample { p, q };
            for n in [1usize, 2, 7, 99, 100, 999, 1000, 30000] {
                let row: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let out = dsp::resample(&row, p, q);
                assert_eq!(
                    kernel.out_len(n),
                    out.len(),
                    "resample({p}:{q}) of {n} samples"
                );
            }
        }
    }
}
