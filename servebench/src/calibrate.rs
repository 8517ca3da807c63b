//! Host-speed calibration. On the shared host this benchmark was made on,
//! the speed of one core changes in phases of seconds: the same loop ran
//! at 40 images/s for a few seconds and at 75 the next. A fixed kernel of
//! the benchmark's own, timed right before the work it calibrates,
//! measures the host's speed of that moment; the work's time over the
//! kernel's is its cost in host-speed units.

/// The calibration's CPU time on the reference host: normalised timings
/// are reported as if the work ran on a host this fast. 1.2 ms is its time
/// on the 2-vCPU Xeon VM the benchmark was made on when that host was least
/// loaded, so normalised values read as that host's when idle.
pub const REF_CALIBRATION_MS: f64 = 1.2;
/// Calibration convolution: channels in and out, input side.
const CAL_C: usize = 16;
const CAL_H: usize = 32;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, in ms. Steal time
/// is excluded where the kernel accounts it (paravirtual guests).
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// A fixed direct 3×3 convolution (u8 activations, i8 weights, `CAL_C`
/// channels in and out, `CAL_H`² input), the same in every run and
/// independent of the program. Of the kernels tried (two integer matrix
/// products, a row-major i16 update like the crossbar's), a convolution
/// like the model's layers tracked the image's cost most closely as the
/// host's load changed.
pub struct Calibration {
    input: Vec<u8>,
    weights: Vec<i8>,
    out: Vec<i32>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut x = 0x2545_f491_u32;
        let mut next = move || {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 24) as u8
        };
        Calibration {
            input: (0..CAL_C * CAL_H * CAL_H).map(|_| next()).collect(),
            weights: (0..CAL_C * CAL_C * 9).map(|_| next() as i8).collect(),
            out: vec![0; CAL_C * CAL_H * CAL_H],
        }
    }

    /// Runs the kernel once and returns its process CPU time in ms.
    pub fn time_ms(&mut self) -> f64 {
        let start = process_cpu_ms();
        std::hint::black_box(conv3x3(&self.input, &self.weights, &mut self.out));
        process_cpu_ms() - start
    }
}

/// The calibration convolution over the input's interior; the returned
/// value keeps it from being optimised away.
fn conv3x3(input: &[u8], weights: &[i8], out: &mut [i32]) -> i64 {
    let input = std::hint::black_box(input);
    for o in 0..CAL_C {
        for y in 1..CAL_H - 1 {
            for x in 1..CAL_H - 1 {
                let mut s = 0i32;
                for c in 0..CAL_C {
                    for dy in 0..3 {
                        for dx in 0..3 {
                            s += i32::from(input[(c * CAL_H + y + dy - 1) * CAL_H + x + dx - 1])
                                * i32::from(weights[((o * CAL_C + c) * 3 + dy) * 3 + dx]);
                        }
                    }
                }
                out[(o * CAL_H + y) * CAL_H + x] = s;
            }
        }
    }
    i64::from(out[100])
}
