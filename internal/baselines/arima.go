package baselines

import (
	"fmt"
	"math"

	"repro/internal/app"
)

// ARConfig configures the seasonal autoregressive forecaster, the
// representative of the ARIMA-family predictors the paper cites as a
// popular auto-scaling choice ([18], [49], [50], [57]).
type ARConfig struct {
	// P is the autoregressive order on the seasonally differenced
	// series (default 4).
	P int
	// Ridge is the L2 regulariser of the least-squares fit (default
	// 1e-3), keeping the normal equations well conditioned.
	Ridge float64
}

// DefaultARConfig returns the conventional configuration.
func DefaultARConfig() ARConfig { return ARConfig{P: 4, Ridge: 1e-3} }

// arExpert is a seasonal AR(p) model for one pair: y is seasonally
// differenced at the period (d_t = y_t − y_{t−period}), an AR(p) with
// intercept is fitted to d by ridge least squares, and forecasts integrate
// the predicted differences back onto the last observed season.
type arExpert struct {
	coef   []float64 // [intercept, φ_1..φ_p]
	period int
	delta  bool
	base   float64
	// history holds the (possibly delta-transformed) training series.
	history []float64
}

// AR is the paper's ARIMA-style baseline: per-pair seasonal
// autoregression on historical utilization. Like resrc-aware DL it is
// blind to the query's API traffic.
type AR struct {
	experts map[app.Pair]*arExpert
}

// TrainAR fits one seasonal AR model per pair.
func TrainAR(usage map[app.Pair][]float64, windowsPerDay int, cfg ARConfig) (*AR, error) {
	if windowsPerDay <= 0 {
		return nil, fmt.Errorf("baselines: windowsPerDay must be positive")
	}
	if cfg.P <= 0 {
		cfg.P = 4
	}
	a := &AR{experts: make(map[app.Pair]*arExpert, len(usage))}
	for p, series := range usage {
		if len(series) < windowsPerDay+cfg.P+2 {
			return nil, fmt.Errorf("baselines: %s has %d samples; need > %d", p, len(series), windowsPerDay+cfg.P+2)
		}
		e := &arExpert{period: windowsPerDay, delta: p.Resource == app.DiskUsage}
		raw := series
		if e.delta {
			e.base = series[len(series)-1]
			raw = diff(series)
		}
		e.history = append([]float64(nil), raw...)
		d := seasonalDiff(raw, windowsPerDay)
		coef, err := fitAR(d, cfg.P, cfg.Ridge)
		if err != nil {
			return nil, fmt.Errorf("baselines: %s: %w", p, err)
		}
		e.coef = coef
		a.experts[p] = e
	}
	return a, nil
}

// diff returns the first differences of series, from a zero first window.
func diff(series []float64) []float64 {
	out := make([]float64, len(series))
	for i := 1; i < len(series); i++ {
		out[i] = series[i] - series[i-1]
	}
	return out
}

// seasonalDiff returns d_t = y_t − y_{t−period} for t ≥ period.
func seasonalDiff(y []float64, period int) []float64 {
	out := make([]float64, len(y)-period)
	for t := period; t < len(y); t++ {
		out[t-period] = y[t] - y[t-period]
	}
	return out
}

// fitAR solves the ridge least-squares AR(p)-with-intercept fit via the
// normal equations.
func fitAR(d []float64, p int, ridge float64) ([]float64, error) {
	n := len(d) - p
	if n < p+1 {
		return nil, fmt.Errorf("series too short for AR(%d)", p)
	}
	k := p + 1 // intercept + p lags
	ata := make([][]float64, k)
	atb := make([]float64, k)
	for i := range ata {
		ata[i] = make([]float64, k)
	}
	row := make([]float64, k)
	for t := p; t < len(d); t++ {
		row[0] = 1
		for i := 1; i <= p; i++ {
			row[i] = d[t-i]
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				ata[i][j] += row[i] * row[j]
			}
			atb[i] += row[i] * d[t]
		}
	}
	for i := 0; i < k; i++ {
		ata[i][i] += ridge
	}
	coef, ok := solveLinear(ata, atb)
	if !ok {
		return nil, fmt.Errorf("singular normal equations")
	}
	return coef, nil
}

// solveLinear performs Gaussian elimination with partial pivoting on a
// small dense system, in place.
func solveLinear(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x, true
}

// Forecast rolls the model forward for `horizon` windows beyond the
// training period.
func (a *AR) Forecast(p app.Pair, horizon int) ([]float64, error) {
	e, ok := a.experts[p]
	if !ok {
		return nil, fmt.Errorf("baselines: AR has no model for %s", p)
	}
	period := e.period
	pOrder := len(e.coef) - 1
	// Seed the difference lags from the end of the training series.
	dHist := seasonalDiff(e.history, period)
	lags := append([]float64(nil), dHist...)
	yHist := append([]float64(nil), e.history...)
	out := make([]float64, horizon)
	acc := e.base
	for t := 0; t < horizon; t++ {
		dHat := e.coef[0]
		for i := 1; i <= pOrder; i++ {
			dHat += e.coef[i] * lags[len(lags)-i]
		}
		yHat := yHist[len(yHist)-period] + dHat
		lags = append(lags, dHat)
		yHist = append(yHist, yHat)
		if e.delta {
			acc += yHat
			out[t] = acc
		} else {
			if yHat < 0 {
				yHat = 0
			}
			out[t] = yHat
		}
	}
	return out, nil
}
