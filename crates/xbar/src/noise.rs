//! Analog variation and noise (paper §7.2).
//!
//! The paper models crossbar variation/noise as a Gaussian added to column
//! sums: for positive/negative sliced-product sums `N⁺` and `N⁻`, the
//! column sum is drawn from `N(N⁺ − N⁻, σ²)` with `σ = E·√(N⁺ + N⁻)` —
//! noise is additive across sliced products, so variance scales with the
//! total charge moved. `E` is the noise level (up to 12% in Fig. 15).
//!
//! Every Gaussian the device draws — read noise through
//! [`NoiseModel::read`] and programming error at (re)program time — comes
//! from [`NoiseRng::standard_normal`]: a 256-layer Marsaglia–Tsang
//! ziggurat (the layout of `rand_distr`'s `StandardNormal`) over one
//! xoshiro256++ generator per counter-derived stream. Its layer edges
//! `ZIG_X` and densities `ZIG_F` are `const` tables checked in below; a
//! unit test regenerates them bit for bit from the tail edge `ZIG_R` and
//! the layer area `V`. About 98.5% of draws take the fast path: **one
//! `u64` from the stream**, one multiply and one compare. The rest take
//! the wedge test (one more `u64` and an `exp`) or, for `|z| > ZIG_R`,
//! Marsaglia's exact exponential tail. A draw thus consumes a variable
//! number of words, but every draw — and so every noisy output — is still
//! a pure function of the stream's key.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// Gaussian column-sum noise at level `E` (0.0 = ideal crossbar).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// The paper's `E`: per-unit-charge noise fraction (e.g. 0.04 = 4%).
    pub level: f64,
}

impl NoiseModel {
    /// Creates a noise model.
    ///
    /// # Panics
    ///
    /// Panics if `level` is negative or not finite.
    pub fn new(level: f64) -> Self {
        assert!(
            level.is_finite() && level >= 0.0,
            "noise level must be finite and non-negative, got {level}"
        );
        NoiseModel { level }
    }

    /// An ideal (noise-free) crossbar.
    pub fn ideal() -> Self {
        NoiseModel { level: 0.0 }
    }

    /// Whether this model perturbs sums at all.
    pub fn is_ideal(&self) -> bool {
        self.level == 0.0
    }

    /// This model with an independent Gaussian of level `extra` added in
    /// quadrature: `√(level² + extra²)`.
    ///
    /// With `extra == 0.0` the model is returned **unchanged** (not
    /// recomputed through `sqrt`), so compounding zero is exactly the
    /// identity — which is what keeps age-0 execution bit-identical to the
    /// static model.
    pub fn compounded(&self, extra: f64) -> Self {
        assert!(
            extra.is_finite() && extra >= 0.0,
            "extra noise level must be finite and non-negative, got {extra}"
        );
        if extra == 0.0 {
            return *self;
        }
        NoiseModel {
            level: (self.level * self.level + extra * extra).sqrt(),
        }
    }

    /// Standard deviation for a column whose positive/negative product sums
    /// are `pos` and `neg`: `E·√(pos + neg)`.
    pub fn sigma(&self, pos: i64, neg: i64) -> f64 {
        let charge = (pos + neg).max(0) as f64;
        self.level * charge.sqrt()
    }

    /// One analog column read: the ideal sum `N⁺ − N⁻` itself on an ideal
    /// crossbar, else a draw from `N(ideal, σ²)` rounded to an integer,
    /// with `σ = E·√charge` and `charge = N⁺ + N⁻`. An ideal model draws
    /// nothing from `rng`.
    #[inline(always)]
    pub fn read(&self, ideal: i64, charge: i64, rng: &mut NoiseRng) -> i64 {
        if self.is_ideal() {
            return ideal;
        }
        let sigma = self.level * (charge.max(0) as f64).sqrt();
        (ideal as f64 + sigma * rng.standard_normal()).round() as i64
    }
}

/// Seeded standard-normal source: a 256-layer ziggurat (see the module
/// docs) over one xoshiro256++ generator, its only state.
#[derive(Debug, Clone)]
pub struct NoiseRng {
    inner: StdRng,
}

/// SplitMix64 finalizer: decorrelates consecutive counter values into
/// well-mixed 64-bit stream seeds.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 53 bits of `bits`, read as a signed integer `s`, mapped to
/// `(2s + 1)/2⁵³`: uniform over 2⁵³ points of the open interval (−1, 1),
/// symmetric about 0 (`!bits` maps to the negation) and never 0. Every
/// step is exact in `f64`.
#[inline(always)]
fn symmetric_unit(bits: u64) -> f64 {
    (((bits as i64) >> 10) | 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl NoiseRng {
    /// Creates a seeded noise source.
    pub fn new(seed: u64) -> Self {
        NoiseRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Creates the counter-derived stream for one work item: the seed XORed
    /// with the mixed item index (`seed ⊕ mix(index)`).
    ///
    /// Every work item (e.g. one input vector in a batch) gets its own
    /// deterministic stream that depends only on `(seed, index)` — never on
    /// how many other items ran before it or on which thread it runs —
    /// which is what makes parallel execution bit-identical to serial.
    pub fn for_stream(seed: u64, index: u64) -> Self {
        NoiseRng::new(seed ^ splitmix64(index))
    }

    /// Creates the counter-derived stream for one sub-unit (`lane`) of work
    /// item `index` — e.g. one crossbar row-group processing one input
    /// vector.
    ///
    /// Physically, analog variation belongs to the crossbar region that
    /// performs a read, so its stream is keyed by the region's stable
    /// coordinates (`lane`), never by how many reads other regions issued
    /// first. Streams depend only on `(seed, index, lane)` and are
    /// decorrelated across both `index` and `lane` (the lane is mixed
    /// through an inverted counter so lane 0 never collides with the plain
    /// [`NoiseRng::for_stream`] stream) — which is what makes row-sharded
    /// execution bit-identical to monolithic execution.
    pub fn for_substream(seed: u64, index: u64, lane: u64) -> Self {
        NoiseRng::new(seed ^ splitmix64(index) ^ splitmix64(!lane))
    }

    /// The substream of [`NoiseRng::for_substream`] aged to drift `epoch`.
    ///
    /// Epoch 0 is **bit-identical** to the un-aged substream — a
    /// freshly-programmed device replays exactly the static noise stream —
    /// and each later epoch re-keys the whole stream, modeling the device
    /// settling into a new relaxation state. The epoch is mixed and
    /// rotated before XORing so it cannot cancel against the index or lane
    /// terms. Streams stay a pure function of
    /// `(seed, index, lane, epoch)`.
    pub fn for_substream_aged(seed: u64, index: u64, lane: u64, epoch: u64) -> Self {
        if epoch == 0 {
            return NoiseRng::for_substream(seed, index, lane);
        }
        NoiseRng::new(
            seed ^ splitmix64(index) ^ splitmix64(!lane) ^ splitmix64(epoch).rotate_left(32),
        )
    }

    /// One standard normal variate: a 256-layer ziggurat (module docs).
    #[inline(always)]
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let bits = self.inner.next_u64();
            // The low 8 bits pick the layer and the top 53 the point
            // across it; the two never share a bit.
            let i = (bits & 0xff) as usize;
            let x = symmetric_unit(bits) * ZIG_X[i];
            // Inside the layer's core, which lies wholly under the curve.
            if x.abs() < ZIG_X[i + 1] {
                return x;
            }
            if let Some(z) = self.outside_core(i, x) {
                return z;
            }
        }
    }

    /// The rare rest of one ziggurat iteration at layer `i`, point `x`:
    /// the base layer's overhang is the exact tail, any other layer's is a
    /// wedge accepted under the density (`None` rejects; draw again).
    #[cold]
    #[inline(never)]
    fn outside_core(&mut self, i: usize, x: f64) -> Option<f64> {
        if i == 0 {
            #[cfg(test)]
            tally(TAILS);
            return Some(self.tail(x));
        }
        #[cfg(test)]
        tally(WEDGE_TESTS);
        let y = ZIG_F[i + 1] + (ZIG_F[i] - ZIG_F[i + 1]) * self.unit();
        (y < density(x)).then_some(x)
    }

    /// Marsaglia's exact normal tail beyond `ZIG_R`, on the side of `x`:
    /// an `Exp(ZIG_R)` offset accepted with probability `e^{−t²/2}`.
    fn tail(&mut self, x: f64) -> f64 {
        loop {
            let t = self.open_unit().ln() / ZIG_R;
            let y = self.open_unit().ln();
            if -2.0 * y >= t * t {
                return (ZIG_R - t).copysign(x);
            }
        }
    }

    /// Uniform in `[0, 1)` from the top 53 bits of one word.
    fn unit(&mut self) -> f64 {
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in the open `(0, 1)` from the top 52 bits of one word.
    fn open_unit(&mut self) -> f64 {
        ((self.inner.next_u64() >> 12) as f64 + 0.5) * (1.0 / (1u64 << 52) as f64)
    }
}

/// The unnormalized standard normal density `e^{−x²/2}` the ziggurat
/// covers.
fn density(x: f64) -> f64 {
    (-x * x / 2.0).exp()
}

/// Where the ziggurat's base layer ends and its exact tail begins
/// (Marsaglia & Tsang 2000, 256 layers).
const ZIG_R: f64 = 3.654152885361009;

/// Layer edges: `x₀ = V/f(R)` (the base strip's width), `x₁ = R`,
/// `x_{i+1} = f⁻¹(V/x_i + f(x_i))`, closing at `x₂₅₆ = 0`. Layer `i`
/// spans `[0, x_i]`, and its core `[0, x_{i+1})` lies under the curve.
#[rustfmt::skip]
const ZIG_X: [f64; 257] = [
    3.91075795953709, 3.654152885361009, 3.4492782985609645, 3.320244733839166,
    3.224575052047029, 3.14788928951715, 3.083526132001233, 3.0278377917686354,
    2.978603279880845, 2.9343668672078542, 2.894121053612348, 2.8571387308721325,
    2.822877396825325, 2.7909211740007858, 2.7609440052788226, 2.732685359042827,
    2.705933656121858, 2.680514643284522, 2.6562830375755024, 2.6331163936303246,
    2.6109105184875485, 2.589575986706995, 2.5690354526805366, 2.5492215503234608,
    2.530075232158517, 2.5115444416253423, 2.4935830412696807, 2.4761499396691433,
    2.4592083743333113, 2.4427253181989568, 2.426670984935726, 2.4110184138996855,
    2.3957431197804806, 2.380822795170626, 2.3662370567158186, 2.35196722737766,
    2.3379961487950314, 2.324308018869623, 2.31088825059985, 2.2977233489013296,
    2.284800802722946, 2.272108990226824, 2.259637095172218, 2.2473750329458078,
    2.235313384928328, 2.2234433400909057, 2.2117566428825444, 2.200245546609648,
    2.1889027716247207, 2.1777214677386416, 2.166695180352646, 2.1558178198750633,
    2.1450836340462036, 2.13448718284432, 2.1240233156878157, 2.113687150684934,
    2.103474055713147, 2.0933796311370503, 2.083399693996552, 2.0735302635169788,
    2.0637675478099564, 2.054107931648865, 2.044547965215733, 2.0350843537278087,
    2.025713947862033, 2.0164337349043717, 2.007240830558685, 1.9981324713565642,
    1.9891060076155713, 1.9801588968985984, 1.9712886979317696, 1.962493064942462,
    1.953769742382734, 1.945116560006754, 1.936531428273759, 1.9280123340507183,
    1.9195573365912288, 1.9111645637692822, 1.9028322085484464, 1.89455852566871,
    1.8863418285347764, 1.8781804862909777, 1.8700729210692368, 1.8620176053976323,
    1.8540130597581481, 1.8460578502831198, 1.8381505865807286, 1.8302899196806666,
    1.8224745400917832, 1.8147031759641676, 1.8069745913486934, 1.7992875845475802,
    1.79164098655001, 1.7840336595472763, 1.776464495522345, 1.768932414909078,
    1.7614363653167067, 1.753975320315455, 1.746548278279493, 1.739154261283669,
    1.7317923140507072, 1.7244615029457757, 1.7171609150155407, 1.709889657069006,
    1.702646854797614, 1.6954316519322385, 1.6882432094348587, 1.6810807047228233,
    1.6739433309237604, 1.6668302961592867, 1.6597408228557895, 1.6526741470806485,
    1.6456295179023603, 1.6386061967731111, 1.631603456932422, 1.6246205828305684,
    1.6176568695705342, 1.6107116223673337, 1.603784156023583, 1.5968737944202613,
    1.5899798700216485, 1.5831017233934714, 1.5762387027333329, 1.5693901634125345,
    1.5625554675284397, 1.555733983466555, 1.5489250854715355, 1.5421281532263476,
    1.5353425714388431, 1.5285677294350246, 1.521803020758293, 1.5150478427739924,
    1.508301596278572, 1.5015636851127065, 1.4948335157777184, 1.4881104970546544,
    1.4813940396253757, 1.4746835556950255, 1.467978458615231, 1.4612781625074078,
    1.4545820818855233, 1.4478896312776697, 1.441200224845798, 1.4345132760029464,
    1.4278281970272904, 1.4211443986723231, 1.4144612897724647, 1.4077782768433715,
    1.4010947636762026, 1.3944101509250713, 1.3877238356868846, 1.381035211072742,
    1.3743436657700305, 1.367648583594318, 1.3609493430301018, 1.3542453167594306,
    1.3475358711773593, 1.3408203658931521, 1.3340981532160836, 1.3273685776246247,
    1.32063097521773, 1.313884673146869, 1.3071289890273539, 1.3003632303274337,
    1.2935866937335176, 1.2867986644897864, 1.2799984157103332, 1.2731852076618437,
    1.2663582870146883, 1.2595168860601442, 1.2526602218912979, 1.245787495544998,
    1.2388978911020274, 1.231990574742445, 1.225064693752808, 1.2181193754817266,
    1.2111537262399112, 1.2041668301405601, 1.197157747875586, 1.1901255154228016,
    1.1830691426787607, 1.1759876120114898, 1.1688798767268338, 1.1617448594415742,
    1.1545814503558518, 1.1473885054167339, 1.1401648443639958, 1.132909248648337,
    1.1256204592112944, 1.118297174115063, 1.1109380460092495, 1.1035416794202682,
    1.0961066278476035, 1.0886313906495142, 1.0811144096988894, 1.0735540657878717,
    1.0659486747575067, 1.0582964833260065, 1.0505956645862071, 1.0428443131393705,
    1.0350404398286053, 1.0271819660307513, 1.0192667174605292, 1.0112924174349784,
    1.0032566795395914, 0.9951569996299431, 0.9869907470938463, 0.9787551552889378,
    0.9704473110588646, 0.9620641432176052, 0.9536024098755727, 0.9450586844625711,
    0.9364293402808969, 0.9277105333962348, 0.918898183643735, 0.909987953490769,
    0.9009752244551745, 0.8918550707267924, 0.8826222295789101, 0.8732710680824946,
    0.8637955455468269, 0.8541891710015606, 0.8444449549024237, 0.8345553540795188,
    0.8245122087452886, 0.8143066701280643, 0.8039291169826649, 0.7933690588331528,
    0.7826150232995888, 0.7716544242167394, 0.7604734064220832, 0.7490566620095817,
    0.7373872114258386, 0.7254461409013035, 0.7132122851820227, 0.7006618410975844,
    0.6877678927862577, 0.6744998228274365, 0.660822574234206, 0.6466957148843889,
    0.6320722363750246, 0.6168969899962355, 0.6011046177439404, 0.5846167660937223,
    0.567338257040473, 0.5491517023130268, 0.5299097206464951, 0.5094233295859334,
    0.48744396612175434, 0.46363433677176324, 0.43751840218666266, 0.40838913458800075,
    0.3751213328504657, 0.33573751918045946, 0.2861745917472605, 0.2152418959132738,
    0.0,
];

/// The density at each layer edge, `ZIG_F[i] = f(ZIG_X[i])`: layer `i ≥ 1`
/// spans heights `[ZIG_F[i], ZIG_F[i + 1]]`.
#[rustfmt::skip]
const ZIG_F: [f64; 257] = [
    0.0004774677645866553, 0.001260285930498598, 0.002609072746106363, 0.0040379725933718715,
    0.005522403299264754, 0.00705087547139211, 0.008616582769422917, 0.0102149714397311,
    0.011842757857943104, 0.013497450601780807, 0.015177088307982072, 0.01688008315259584,
    0.01860512127578335, 0.020351096230109354, 0.022117062707379922, 0.023902203305873237,
    0.025705804008632656, 0.027527235669693315, 0.02936593975823011, 0.03122141719202369,
    0.0330932194586887, 0.03498094146183307, 0.03688421568869115, 0.03880270740465692,
    0.04073611065607875, 0.04268414491661938, 0.044646552251446536, 0.046623094902089664,
    0.048613553216035145, 0.05061772386112179, 0.05263541827697365, 0.054666461325077916,
    0.05671069010639947, 0.058767952921137984, 0.060838108349751806, 0.06292102443797785,
    0.06501657797147044, 0.06712465382802399, 0.06924514439725027, 0.07137794905914197,
    0.07352297371424099, 0.07568013035919496, 0.07784933670237221, 0.08003051581494751,
    0.08222359581349568, 0.08442850957065466, 0.08664519445086778, 0.08887359206859423,
    0.09111364806670073, 0.09336531191302662, 0.09562853671335333, 0.09790327903921563,
    0.10018949876917202, 0.10248715894230627, 0.10479622562286706, 0.10711666777507288,
    0.10944845714721002, 0.11179156816424558, 0.11414597782825521, 0.11651166562603701,
    0.1188886134433457, 0.12127680548523544, 0.1236762282020514, 0.12608687022065035,
    0.12850872228047364, 0.13094177717412817, 0.13338602969216284, 0.13584147657175735,
    0.13830811644906432, 0.1407859498149683, 0.14327497897404712, 0.14577520800653793,
    0.14828664273312872, 0.15080929068241017, 0.15334316106083767, 0.15588826472506456,
    0.15844461415652022, 0.16101222343811766, 0.16359110823298295, 0.16618128576511007,
    0.16878277480185033, 0.17139559563815562, 0.17401977008249936, 0.17665532144440665,
    0.1793022745235304, 0.1819606556002165, 0.18463049242750454, 0.18731181422451693,
    0.19000465167119307, 0.1927090369043288, 0.1954250035148856, 0.1981525865465381,
    0.20089182249543133, 0.2036427493111215, 0.20640540639867933, 0.20917983462193565,
    0.21196607630785294, 0.2147641752520085, 0.21757417672517837, 0.2203961274810116,
    0.2232300757647896, 0.22607607132326488, 0.22893416541557748, 0.23180441082524852,
    0.2346868618732527, 0.23758157443217368, 0.2404886059414491, 0.243408015423712,
    0.24633986350223877, 0.2492842124195167, 0.25224112605694377, 0.25521066995567715,
    0.258192911338648, 0.2611879191337637, 0.26419576399831757, 0.26721651834463184,
    0.27025025636696, 0.2732970540696758, 0.27635698929678126, 0.2794301417627653,
    0.2825165930848494, 0.2856164268166581, 0.28872972848335393, 0.291856585618281,
    0.29499708780116257, 0.29815132669790134, 0.3013193961020341, 0.3045013919778963,
    0.30769741250555377, 0.3109075581275637, 0.31413193159763014, 0.3173706380312224,
    0.32062378495823013, 0.323891482377732, 0.3271738428149586, 0.3304709813805371,
    0.3337830158321085, 0.3371100666384128, 0.34045225704594545, 0.34380971314829134,
    0.3471825639582515, 0.3505709414828812, 0.35397498080156925, 0.3573948201472905,
    0.36083060099117575, 0.3642824681305496, 0.3677505697805962, 0.37123505766982134,
    0.3747360871394914, 0.3782538172472381, 0.38178841087503135, 0.38534003484173396,
    0.3889088600204646, 0.39249506146101076, 0.3960988185175471, 0.39972031498193167,
    0.4033597392228689, 0.40701728433124795, 0.4106931482719832, 0.4143875340427068,
    0.4181006498396846, 0.4218327092313533, 0.4255839313399006, 0.4293545410313415,
    0.43314476911457406, 0.4369548525499293, 0.4407850346677699, 0.44463556539772775,
    0.44850670150921407, 0.4523987068638825, 0.45631185268077357, 0.4602464178149235,
    0.46420268905027884, 0.46818096140782217, 0.47218153846988326, 0.4762047327216838,
    0.4802508659112497, 0.4843202694289116, 0.48841328470771206, 0.49253026364614866,
    0.4966715690547963, 0.5008375751284821, 0.5050286679458288, 0.5092452459981361,
    0.513487720749743, 0.5177565172322006, 0.5220520746747949, 0.5263748471741867,
    0.5307253044061939, 0.5351039323830196, 0.5395112342595446, 0.5439477311926499,
    0.5484139632579211, 0.5529104904285199, 0.5574378936214863, 0.5619967758172779,
    0.5665877632589518, 0.571211506738075, 0.5758686829752105, 0.5805599961036835,
    0.5852861792663003, 0.590047996335792, 0.5948462437709913, 0.5996817526221677,
    0.6045553907005495, 0.6094680649288954, 0.6144207238920768, 0.6194143606090392,
    0.6244500155502742, 0.6295287799281283, 0.63465179929096, 0.639820277456439,
    0.6450354808242519, 0.6502987431142946, 0.6556114705832247, 0.6609751477802414,
    0.6663913439123806, 0.6718617199007664, 0.6773880362225131, 0.6829721616487914,
    0.6886160830085271, 0.6943219161300326, 0.7000919181404901, 0.7059285013367974,
    0.7118342488823585, 0.7178119326349014, 0.7238645334728816, 0.7299952645658024,
    0.7362075981312667, 0.7425052963446362, 0.7488924472237267, 0.7553735065117545,
    0.7619533468415465, 0.7686373158033348, 0.7754313049861383, 0.7823418326598619,
    0.7893761435711986, 0.7965423304282546, 0.8038494831763895, 0.8113078743182199,
    0.8189291916094148, 0.8267268339520942, 0.8347162929929304, 0.8429156531184411,
    0.8513462584651237, 0.8600336212030086, 0.8690086880437932, 0.8783096558161468,
    0.8879846607633999, 0.898095921906304, 0.9087264400605629, 0.9199915050483602,
    0.9320600759689902, 0.945198953453078, 0.9598790918124159, 0.9771017012827313,
    1.0,
];

/// Slot of [`NoiseRng::outside_core`]'s wedge-test tally.
#[cfg(test)]
const WEDGE_TESTS: usize = 0;
/// Slot of the exact-tail tally.
#[cfg(test)]
const TAILS: usize = 1;

#[cfg(test)]
thread_local! {
    /// Slow-path tallies of the draws made on this thread.
    static SLOW_PATHS: std::cell::Cell<[u64; 2]> = const { std::cell::Cell::new([0; 2]) };
}

#[cfg(test)]
fn tally(slot: usize) {
    SLOW_PATHS.with(|c| {
        let mut t = c.get();
        t[slot] += 1;
        c.set(t);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_noise_returns_exact_sum() {
        let m = NoiseModel::ideal();
        let mut rng = NoiseRng::new(1);
        assert_eq!(m.read(60, 140, &mut rng), 60);
        assert!(m.is_ideal());
    }

    #[test]
    fn sigma_scales_with_sqrt_total_charge() {
        let m = NoiseModel::new(0.12);
        // The paper's example: σ ≈ 4 for 512 2b×2b MACs at 12%.
        // 512 MACs of 3·3 = 9 each → total charge 4608, σ = 0.12·√4608 ≈ 8.1
        // (the paper's σ≈4 counts balanced pos/neg; at half charge each,
        //  0.12·√(2304+2304) is the same 8.1 — the paper's "≈4" uses
        //  average slice values, ours uses maxima; both scale identically).
        let sigma = m.sigma(2304, 2304);
        assert!((sigma - 0.12 * (4608f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn samples_center_on_ideal_with_right_spread() {
        let m = NoiseModel::new(0.10);
        let mut rng = NoiseRng::new(7);
        let (pos, neg) = (5000i64, 3000i64);
        let n = 20_000;
        let samples: Vec<i64> = (0..n)
            .map(|_| m.read(pos - neg, pos + neg, &mut rng))
            .collect();
        let mean = samples.iter().sum::<i64>() as f64 / n as f64;
        assert!((mean - 2000.0).abs() < 0.5, "mean {mean}");
        let sigma_expected = m.sigma(pos, neg);
        let var = samples
            .iter()
            .map(|&s| (s as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!(
            (var.sqrt() - sigma_expected).abs() / sigma_expected < 0.05,
            "σ {} vs expected {sigma_expected}",
            var.sqrt()
        );
    }

    /// The area of each of the 256 layers: the base strip `[0, ZIG_R]` plus
    /// the tail beyond it, and every rectangle stacked above.
    const ZIG_V: f64 = 0.00492867323399;

    /// The table recurrence of Marsaglia & Tsang (2000), as `rand_distr`
    /// generates its tables: `x₀ = V/f(R)`, `x₁ = R`, `x_{i+1} =
    /// f⁻¹(V/x_i + f(x_i))` up to `x₂₅₅`, `x₂₅₆ = 0`; `F = f(X)`.
    fn ziggurat_tables() -> ([f64; 257], [f64; 257]) {
        let mut x = [0.0; 257];
        x[0] = ZIG_V / density(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..256 {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + density(x[i - 1])).ln()).sqrt();
        }
        (x, x.map(density))
    }

    #[test]
    fn ziggurat_tables_regenerate_bit_for_bit() {
        let (x, f) = ziggurat_tables();
        for i in 0..257 {
            assert_eq!(x[i].to_bits(), ZIG_X[i].to_bits(), "ZIG_X[{i}]");
            assert_eq!(f[i].to_bits(), ZIG_F[i].to_bits(), "ZIG_F[{i}]");
        }
        // R and V close the stack: the top layer, forced to end at x = 0,
        // still has area V.
        let top = ZIG_X[255] * (1.0 - ZIG_F[255]);
        assert!((top - ZIG_V).abs() < 1e-8 * ZIG_V, "top layer area {top}");
    }

    #[test]
    fn symmetric_unit_is_open_symmetric_and_exact() {
        let one = 1u64 << 53;
        for (bits, num) in [
            (0u64, 1i64),
            (u64::MAX, -1),
            (u64::MAX >> 1, one as i64 - 1),
            (1u64 << 63, 1 - one as i64),
            (0x7ff, 1),
        ] {
            assert_eq!(symmetric_unit(bits), num as f64 / one as f64, "{bits:#x}");
        }
        let mut rng = NoiseRng::new(5);
        for _ in 0..10_000 {
            let bits = rng.inner.next_u64();
            let u = symmetric_unit(bits);
            assert!(u > -1.0 && u < 1.0 && u != 0.0);
            assert_eq!(symmetric_unit(!bits), -u);
        }
    }

    /// `erfc(x)` for `x ≥ 0` as `1 − erf(x)`, with `erf` from its
    /// all-positive series `2/√π·e^{−x²}·Σₙ (2x²)ⁿ·x/(1·3···(2n+1))`: no
    /// cancellation, so ~1e-16 absolute.
    fn erfc(x: f64) -> f64 {
        let (mut term, mut sum, mut n) = (x, x, 0.0);
        while term > 1e-17 * sum {
            n += 1.0;
            term *= 2.0 * x * x / (2.0 * n + 1.0);
            sum += term;
        }
        1.0 - 2.0 / std::f64::consts::PI.sqrt() * (-x * x).exp() * sum
    }

    /// Two-sided normal tail mass `P(|Z| > k)`.
    fn two_sided_tail(k: f64) -> f64 {
        erfc(k / std::f64::consts::SQRT_2)
    }

    #[test]
    fn erfc_matches_reference_values() {
        assert!((erfc(1.0) - 0.157_299_207_050_285_13).abs() < 1e-15);
        assert!((two_sided_tail(2.0) - 0.045_500_263_896_358_42).abs() < 1e-15);
        assert!((two_sided_tail(4.0) / 6.334_248_366_623_996e-5 - 1.0).abs() < 1e-10);
    }

    /// Draws from eight independent `for_substream` streams: 2²² =
    /// 4,194,304 in all.
    const STREAMS: u64 = 8;
    const PER_STREAM: usize = 1 << 19;
    const DRAWS: f64 = (STREAMS as usize * PER_STREAM) as f64;

    /// Feeds every draw to `f`; returns this thread's slow-path tallies
    /// over exactly these draws.
    fn for_each_draw(mut f: impl FnMut(f64)) -> [u64; 2] {
        let before = SLOW_PATHS.with(|c| c.get());
        for lane in 0..STREAMS {
            let mut rng = NoiseRng::for_substream(0x5EED, 3, lane);
            for _ in 0..PER_STREAM {
                f(rng.standard_normal());
            }
        }
        let after = SLOW_PATHS.with(|c| c.get());
        [after[0] - before[0], after[1] - before[1]]
    }

    /// Asserts `count` is within five binomial standard errors of
    /// `DRAWS·p`.
    fn assert_rate(what: &str, count: u64, p: f64) {
        let want = DRAWS * p;
        let se = (DRAWS * p * (1.0 - p)).sqrt();
        assert!(
            (count as f64 - want).abs() <= 5.0 * se,
            "{what}: {count} vs expected {want:.1} (±{se:.1} s.e.)"
        );
    }

    #[test]
    fn standard_normal_moments_match() {
        let mut s = [0.0f64; 4];
        for_each_draw(|z| {
            let z2 = z * z;
            s[0] += z;
            s[1] += z2;
            s[2] += z2 * z;
            s[3] += z2 * z2;
        });
        let [m1, m2, m3, m4] = s.map(|v| v / DRAWS);
        let var = m2 - m1 * m1;
        let c3 = m3 - 3.0 * m1 * m2 + 2.0 * m1.powi(3);
        let c4 = m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1.powi(4);
        let skew = c3 / var.powf(1.5);
        let excess_kurtosis = c4 / (var * var) - 3.0;
        // Five standard errors of each estimator under N(0, 1):
        // √(1/n), √(2/n), √(6/n), √(24/n) — 0.0024, 0.0035, 0.0060, 0.012.
        let tol = |c: f64| 5.0 * (c / DRAWS).sqrt();
        assert!(m1.abs() < tol(1.0), "mean {m1}");
        assert!((var - 1.0).abs() < tol(2.0), "variance {var}");
        assert!(skew.abs() < tol(6.0), "skew {skew}");
        assert!(
            excess_kurtosis.abs() < tol(24.0),
            "excess kurtosis {excess_kurtosis}"
        );
    }

    #[test]
    fn standard_normal_tails_match_erfc() {
        const KS: [f64; 5] = [1.0, 2.0, 3.0, 3.5, 4.0];
        let mut beyond = [0u64; 5];
        for_each_draw(|z| {
            for (k, n) in KS.iter().zip(&mut beyond) {
                *n += u64::from(z.abs() > *k);
            }
        });
        for (k, n) in KS.iter().zip(beyond) {
            assert_rate(&format!("P(|z| > {k})"), n, two_sided_tail(*k));
        }
    }

    #[test]
    fn ziggurat_paths_are_hit_at_their_rates() {
        let mut beyond_r = 0u64;
        let [wedge_tests, tails] = for_each_draw(|z| beyond_r += u64::from(z.abs() > ZIG_R));
        // Only the tail path returns |z| > R, and it always does.
        assert_eq!(beyond_r, tails, "tail draws vs |z| > R");
        assert_rate("tail path", tails, two_sided_tail(ZIG_R));
        // An iteration samples the 256·V ziggurat uniformly and keeps
        // points under the curve (area √(π/2)), so a draw takes
        // 256·V/√(π/2) iterations on average. Each iteration enters the
        // wedge at layer i ≥ 1 with probability (1 − x_{i+1}/x_i)/256.
        let iterations = 256.0 * ZIG_V / (std::f64::consts::PI / 2.0).sqrt();
        let wedge_per_iteration =
            (1..256).map(|i| 1.0 - ZIG_X[i + 1] / ZIG_X[i]).sum::<f64>() / 256.0;
        assert_rate("wedge tests", wedge_tests, wedge_per_iteration * iterations);
        assert!(
            tails > 500 && wedge_tests > 10_000,
            "{tails} tails, {wedge_tests} wedges"
        );
    }

    #[test]
    fn noise_is_deterministic_given_seed() {
        let m = NoiseModel::new(0.05);
        let mut a = NoiseRng::new(3);
        let mut b = NoiseRng::new(3);
        for _ in 0..50 {
            assert_eq!(m.read(50, 150, &mut a), m.read(50, 150, &mut b));
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_level_rejected() {
        NoiseModel::new(-0.1);
    }

    #[test]
    fn substreams_are_deterministic_and_distinct_from_streams() {
        let m = NoiseModel::new(0.05);
        let mut a = NoiseRng::for_substream(9, 4, 0);
        let mut b = NoiseRng::for_substream(9, 4, 0);
        let mut lane1 = NoiseRng::for_substream(9, 4, 1);
        let mut plain = NoiseRng::for_stream(9, 4);
        let mut lane_diff = false;
        let mut plain_diff = false;
        for _ in 0..50 {
            let va = m.read(500, 1500, &mut a);
            assert_eq!(va, m.read(500, 1500, &mut b));
            lane_diff |= va != m.read(500, 1500, &mut lane1);
            plain_diff |= va != m.read(500, 1500, &mut plain);
        }
        assert!(lane_diff, "adjacent lanes must decorrelate");
        assert!(plain_diff, "lane 0 must not collide with the plain stream");
    }

    #[test]
    fn aged_substream_epoch_zero_matches_unaged() {
        let m = NoiseModel::new(0.05);
        let mut aged0 = NoiseRng::for_substream_aged(9, 4, 2, 0);
        let mut plain = NoiseRng::for_substream(9, 4, 2);
        let mut aged1 = NoiseRng::for_substream_aged(9, 4, 2, 1);
        let mut aged1b = NoiseRng::for_substream_aged(9, 4, 2, 1);
        let mut epoch_diff = false;
        for _ in 0..50 {
            assert_eq!(
                m.read(500, 1500, &mut aged0),
                m.read(500, 1500, &mut plain),
                "epoch 0 must replay the static stream bit-for-bit"
            );
            let v1 = m.read(500, 1500, &mut aged1);
            assert_eq!(v1, m.read(500, 1500, &mut aged1b));
            epoch_diff |= v1 != m.read(500, 1500, &mut NoiseRng::for_substream(9, 4, 2));
        }
        assert!(epoch_diff, "epoch 1 must re-key the stream");
    }

    #[test]
    fn compounding_zero_is_identity() {
        let m = NoiseModel::new(0.07);
        assert_eq!(m.compounded(0.0), m);
        let c = m.compounded(0.07);
        assert!((c.level - 0.07 * 2f64.sqrt()).abs() < 1e-12);
        assert!(!c.is_ideal());
        // Ideal base + drift turns noise on.
        assert!(!NoiseModel::ideal().compounded(0.01).is_ideal());
    }

    #[test]
    fn stream_rngs_are_deterministic_and_distinct() {
        let m = NoiseModel::new(0.05);
        let mut a = NoiseRng::for_stream(9, 4);
        let mut b = NoiseRng::for_stream(9, 4);
        let mut c = NoiseRng::for_stream(9, 5);
        let mut any_diff = false;
        for _ in 0..50 {
            let va = m.read(500, 1500, &mut a);
            assert_eq!(va, m.read(500, 1500, &mut b));
            any_diff |= va != m.read(500, 1500, &mut c);
        }
        assert!(any_diff, "adjacent streams must decorrelate");
    }
}
